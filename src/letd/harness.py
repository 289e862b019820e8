"""Experiment harness: built-in problems, study recipes, CSV output, CLI.

Three study families are wired up, selected by the built-in problem name:

* ``error_equation`` -- homogeneous 1d problem (zero data) whose Schwarz
  iterates are the iteration error; runs measure contraction factors from
  random interface guesses, averaged over seeds.
* ``analytic_1d`` -- manufactured 1d solution for accuracy/observed-order
  sweeps over the time step, monodomain or localized.
* ``analytic_2d`` -- manufactured 2d solution; reports the final-time
  max-norm error for monodomain and fixed-budget iterative runs.

Each run writes a decay-curve CSV (``run_id,iteration,time_level,interface,
raw_update,normalized_error``) and a summary CSV (``run_id,delta_cells,dt,T,
P,scheme,solver,contraction,linf_error,observed_order,iters_used``).  Bodies
are deterministic for a fixed seed; wall-clock data stays in the ``#`` header.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .analysis import ErrorReport, estimate_contraction, linf_norms
from .geometry import (
    Problem,
    decompose,
    decompose_1d,
    decompose_2d,
    make_grid_1d,
    make_grid_2d,
)
from .schwarz import (
    Level,
    SolverConfig,
    build_local_pieces,
    method1_advance,
    method1_march,
    method2_solve,
    random_trace_guess,
)
from .steppers import TimeGrid

PROBLEMS = ("error_equation", "analytic_1d", "analytic_2d")
SOLVERS = ("mono", "method1", "method2")

DECAY_COLUMNS = "run_id,iteration,time_level,interface,raw_update,normalized_error"
#: one decay row (run_id, iteration, time_level, interface, raw, normalized),
#: each cell formatted as `_fmt` formats it
DECAY_ROW = "%s,%d,%d,%d,%.17g,%.17g"
SUMMARY_COLUMNS = (
    "run_id,delta_cells,dt,T,P,scheme,solver,contraction,linf_error,"
    "observed_order,iters_used"
)

#: iteration budgets used by the rate studies (fixed sweep counts per run)
RATE_BUDGET = {"method1": 30, "method2": 60}
#: fewest sweeps a rate study can estimate a contraction from: the default
#: trimming of estimate_contraction needs six curve entries, the guess included
RATE_MIN_SWEEPS = 5
#: default stopping tolerances for "converged" localized solutions
DEFAULT_TOL = {"etd1": 1e-4, "etd2": 1e-6}


def builtin_problem(name: str, horizon: Optional[float] = None):
    """Named data sets for the studies; ``horizon`` overrides the default T.
    Each states its data as a time factor times a function of space
    (`Problem.terms`), which runs transform once."""
    if name == "error_equation":
        zero = lambda x, *t: np.zeros_like(np.asarray(x, dtype=float))
        return Problem(
            nu=1.0, lengths=(2.0,), horizon=1.0 if horizon is None else horizon,
            initial=zero, exact=zero, terms=(),
        )
    if name == "analytic_1d":
        pi2 = math.pi ** 2
        u = lambda x, t: np.exp(pi2 * t) * np.sin(np.pi * (x - 0.25))
        mode = lambda x: np.sin(np.pi * (x - 0.25))
        return Problem(
            nu=1.0, lengths=(2.0,), horizon=0.25 if horizon is None else horizon,
            initial=lambda x: u(x, 0.0),
            exact=u,
            origin=(-1.0,),
            terms=((lambda t: np.exp(pi2 * t), lambda x: 2.0 * pi2 * mode(x), mode),),
        )
    if name == "analytic_2d":
        u = lambda x, y, t: np.exp(-4.0 * t) * np.sin(x - 0.25) * np.sin(2.0 * (y - 0.125))
        mode = lambda x, y: np.sin(x - 0.25) * np.sin(2.0 * (y - 0.125))
        return Problem(
            nu=1.0, lengths=(math.pi, math.pi),
            horizon=0.5 if horizon is None else horizon,
            initial=lambda x, y: u(x, y, 0.0),
            exact=u,
            terms=((lambda t: np.exp(-4.0 * t), mode, mode),),
        )
    raise ValueError(f"unknown builtin problem {name!r}")


@dataclass
class ExperimentConfig:
    problem: str = "error_equation"
    solver: str = "method2"
    scheme: str = "etd1"
    n: int = 255
    ny: Optional[int] = None
    dts: tuple = (0.01,)
    horizon: float = 1.0
    px: int = 2
    py: int = 1
    overlaps: tuple = (8,)
    overlap_convention: str = "full"
    tolerance: Optional[float] = None
    max_iterations: int = 2000
    fixed_iterations: Optional[int] = None
    seed: int = 0
    seeds: int = 5
    window_steps: Optional[int] = None
    out: Optional[str] = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.scheme not in ("etd1", "etd2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.problem == "error_equation" and self.solver == "mono":
            raise ValueError("the error equation studies iterative solvers only")
        if self.problem != "analytic_2d" and self.py != 1:
            raise ValueError(f"--subdomains {self.px}x{self.py}: problem {self.problem} has one "
                             f"axis, so it takes P subdomains, not PxQ")
        if self.problem == "error_equation" and self.px < 2:
            raise ValueError(f"a rate study needs at least 2 subdomains, got subdomains {self.px}: "
                             "a single piece has no interface")
        if (self.problem == "error_equation" and self.fixed_iterations is not None
                and self.fixed_iterations < RATE_MIN_SWEEPS):
            raise ValueError(f"a rate study needs fixed_iters >= {RATE_MIN_SWEEPS}, got "
                             f"{self.fixed_iterations}: the contraction estimate uses the "
                             f"guess and at least {RATE_MIN_SWEEPS} sweeps")
        if self.problem == "error_equation" and self.window_steps is not None:
            raise ValueError(f"a rate study (problem error_equation) takes no window_steps, got "
                             f"{self.window_steps}: every window restarts the error curve "
                             "from its guess, so no one curve gives the contraction")
        if not self.dts:
            raise ValueError("need at least one time step")
        if len(set(self.dts)) < len(self.dts):
            raise ValueError(f"the time step sweep {','.join(f'{dt:g}' for dt in self.dts)} "
                             "repeats a step")
        given = [("time step", dt) for dt in self.dts] + [("horizon", self.horizon)]
        if self.tolerance is not None:
            given.append(("tolerance", self.tolerance))
        for name, value in given:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if self.problem == "analytic_2d" and (len(self.dts) > 1 or len(self.overlaps) > 1):
            raise ValueError("a 2d run takes one time step and one overlap")
        if self.window_steps is not None and self.solver != "method2":
            raise ValueError("window_steps applies to the waveform solver (method2) only")
        for dt in self.dts:
            steps = self.horizon / dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ValueError(f"dt {dt} does not divide the horizon {self.horizon}")

    def effective_tolerance(self) -> float:
        return DEFAULT_TOL[self.scheme] if self.tolerance is None else self.tolerance

    def solver_config(self, budget: Optional[int] = None) -> SolverConfig:
        """Iteration controls; a given `budget` overrides fixed_iterations."""
        return SolverConfig(
            scheme=self.scheme,
            tolerance=self.effective_tolerance(),
            max_iterations=self.max_iterations,
            fixed_iterations=self.fixed_iterations if budget is None else budget,
            window_steps=self.window_steps,
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    summary_rows: list = field(default_factory=list)
    decay_rows: list = field(default_factory=list)
    wall_time: float = 0.0
    notes: dict = field(default_factory=dict)

    def header_lines(self) -> list:
        c = self.config
        lines = [
            f"# problem: {c.problem}", f"# solver: {c.solver}", f"# scheme: {c.scheme}",
            f"# n: {c.n}", f"# ny: {'' if c.ny is None else c.ny}",
            f"# dt: {','.join(_fmt(dt) for dt in c.dts)}",
            f"# T: {_fmt(c.horizon)}",
            f"# subdomains: {c.px}x{c.py}",
            f"# overlap_cells: {','.join(str(o) for o in c.overlaps)}",
            # a 1d layout widens both sides of a break by overlap_cells
            f"# overlap_convention: {c.overlap_convention if c.problem == 'analytic_2d' else 'half'}",
            f"# tolerance: {_fmt(c.effective_tolerance())}",
            f"# max_iterations: {c.max_iterations}",
            f"# fixed_iterations: {'' if c.fixed_iterations is None else c.fixed_iterations}",
            f"# seed: {c.seed}", f"# seeds: {c.seeds}",
            f"# window_steps: {'' if c.window_steps is None else c.window_steps}",
        ]
        lines += [f"# {k}: {v}" for k, v in sorted(self.notes.items())]
        lines.append(f"# wall_time_s: {self.wall_time:.3f}")
        return lines

    def decay_csv(self) -> str:
        body = [DECAY_COLUMNS] + [DECAY_ROW % r for r in self.decay_rows]
        return "\n".join(self.header_lines() + body) + "\n"

    def summary_csv(self) -> str:
        body = [SUMMARY_COLUMNS] + [_join(r) for r in self.summary_rows]
        return "\n".join(self.header_lines() + body) + "\n"

    def write(self, out_dir: Union[str, Path]) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "decay.csv").write_text(self.decay_csv())
        (out / "summary.csv").write_text(self.summary_csv())


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _join(row) -> str:
    return ",".join(x if isinstance(x, str) else _fmt(x) for x in row)


def _decay_from_log(rows, run_id, log, time_level) -> None:
    """Append per-interface decay rows (run_id, iteration, time_level,
    interface, raw, normalized) in iteration-major order; errors preferred,
    updates otherwise.  Each curve is normalized by its first row (a zero
    entry by 1), in one pass over the whole log, and the cells are plain
    Python numbers."""
    if log.errors is not None:
        curves = log.errors  # (K+1, n_if), row 0 is the initial guess
        start = 0
    else:
        curves = log.updates  # (K, n_if)
        start = 1
    if curves.size == 0:
        return
    base = curves[0].copy()
    base[base == 0.0] = 1.0
    k, j = np.indices(curves.shape)
    rows.extend(zip(itertools.repeat(run_id), (k + start).ravel().tolist(),
                    itertools.repeat(time_level), j.ravel().tolist(),
                    curves.ravel().tolist(), (curves / base).ravel().tolist()))


# ---------------------------------------------------------------------------
# rate studies on the error equation
# ---------------------------------------------------------------------------

def _zero_reference(interfaces, steps=None):
    if steps is None:
        return [np.zeros(itf.size) for itf in interfaces]
    return [np.zeros((steps + 1, itf.size)) for itf in interfaces]


def _rate_study(config: ExperimentConfig, result: ExperimentResult) -> None:
    problem = builtin_problem("error_equation", config.horizon)
    grid = make_grid_1d(config.n, problem.length)
    budget = RATE_BUDGET[config.solver] if config.fixed_iterations is None \
        else config.fixed_iterations
    scfg = config.solver_config(budget)
    for delta in config.overlaps:
        layout = decompose_1d(grid, config.px, delta)
        for dt in config.dts:
            steps = int(round(config.horizon / dt))
            timegrid = TimeGrid(config.horizon, steps)
            pieces = build_local_pieces(problem, grid, layout, timegrid.dt)
            tag = (f"{config.problem}-{config.solver}-{config.scheme}"
                   f"-d{delta}-dt{dt:g}-T{config.horizon:g}-P{config.px}")
            # one start level for every seed, which no solve writes into
            start = Level.of(pieces, [p.u0 for p in pieces], 0.0)
            rates = []
            for s in range(config.seeds):
                seed = config.seed + s
                run_id = f"{tag}-s{seed}"
                if config.solver == "method1":
                    guess = random_trace_guess(layout.interfaces, seed)
                    _, log = method1_advance(
                        pieces, layout.interfaces, start, 0.0, timegrid.dt, scfg,
                        init_guess=guess,
                        reference=_zero_reference(layout.interfaces),
                    )
                    _decay_from_log(result.decay_rows, run_id, log, time_level=1)
                else:
                    guess = random_trace_guess(layout.interfaces, seed, steps=steps)
                    _, log = method2_solve(
                        pieces, layout.interfaces, timegrid, scfg,
                        init_guess=guess,
                        reference=_zero_reference(layout.interfaces, steps),
                        final_only=True, start=start,
                    )
                    _decay_from_log(result.decay_rows, run_id, log, time_level=0)
                two_step = estimate_contraction(log.curve())
                rates.append(math.sqrt(two_step))
            result.summary_rows.append(
                (tag, delta, dt, config.horizon, config.px, config.scheme,
                 config.solver, float(np.mean(rates)), "", "", budget))


# ---------------------------------------------------------------------------
# accuracy studies on the manufactured solutions
# ---------------------------------------------------------------------------

def _solve(config, problem, grid, layout, timegrid, guess=None, final_only=False):
    """Build and solve one accuracy run on `layout` (the one-piece layout
    for the monodomain run, which is method 1 without interfaces).  Returns
    the boxes of the pieces, their trajectories (every level, or with
    `final_only` level 0 and the last) and the iteration logs: one per
    level for method 1, one for method 2, none for the monodomain run."""
    pieces = build_local_pieces(problem, grid, layout, timegrid.dt)
    scfg = config.solver_config()
    if config.solver == "method2":
        trajs, log = method2_solve(pieces, layout.interfaces, timegrid, scfg, init_guess=guess,
                                   final_only=final_only)
        return layout.pieces, trajs, [log]
    trajs, logs = method1_march(pieces, layout.interfaces, timegrid, scfg, final_only=final_only)
    return layout.pieces, trajs, logs if config.solver == "method1" else []


def _record_logs(result, config, tag, logs, levels=None) -> None:
    """Decay rows of the first `levels` logs (all by default); per-step
    logs are 1-based levels, a waveform log is level 0.  A run with a
    log that stopped short of its tolerance counts as unconverged."""
    for m, log in enumerate(logs[:levels]):
        level = m + 1 if config.solver == "method1" else 0
        _decay_from_log(result.decay_rows, tag, log, time_level=level)
    if not all(log.converged for log in logs):
        result.notes["unconverged_runs"] = result.notes.get("unconverged_runs", 0) + 1


def _piece_errors(problem, grid, boxes, trajs, times) -> list[ErrorReport]:
    """`linf_norms` of each piece's trajectory against the exact solution on
    the piece's box, level m taken at times[m]; a NaN raises ValueError."""
    t = np.reshape(times, (-1,) + (1,) * len(grid.shape))
    return [linf_norms(traj, problem.exact(*grid.mesh(box), t))
            for box, traj in zip(boxes, trajs)]


def _accuracy_study_1d(config: ExperimentConfig, result: ExperimentResult) -> None:
    problem = builtin_problem("analytic_1d", config.horizon)
    grid = make_grid_1d(config.n, problem.length, origin=problem.origin)
    if config.solver == "mono":
        loops = [("", decompose(grid.shape, (1,), (0, 0)))]
    else:
        loops = [(delta, decompose_1d(grid, config.px, delta))
                 for delta in config.overlaps]
    for delta, layout in loops:
        order_in = []
        for dt in config.dts:
            steps = int(round(config.horizon / dt))
            timegrid = TimeGrid(config.horizon, steps)
            tag = (f"{config.problem}-{config.solver}-{config.scheme}"
                   + (f"-d{delta}" if delta != "" else "")
                   + f"-dt{dt:g}-T{config.horizon:g}")
            boxes, trajs, logs = _solve(config, problem, grid, layout, timegrid)
            _record_logs(result, config, tag, logs)
            iters = sum(log.iterations for log in logs) if logs else ""
            # the pieces cover the grid, so the largest scale is the exact
            # solution's space-time max
            errors = _piece_errors(problem, grid, boxes, trajs, timegrid.times())
            rel = (max(e.linf_spacetime for e in errors)
                   / max(e.reference_scale for e in errors))
            order = "" if not order_in else (math.log2(order_in[-1][1] / rel)
                                             / math.log2(order_in[-1][0] / dt))
            order_in.append((dt, rel))
            result.summary_rows.append(
                (tag, delta if delta != "" else 0, dt, config.horizon, layout.counts[0],
                 config.scheme, config.solver, "", rel, order, iters))
    result.notes["error_normalization"] = "space-time max of the exact solution"


def _accuracy_study_2d(config: ExperimentConfig, result: ExperimentResult) -> None:
    problem = builtin_problem("analytic_2d", config.horizon)
    ny = config.n if config.ny is None else config.ny
    grid = make_grid_2d(config.n, ny, problem.lengths)
    dt = config.dts[0]
    steps = int(round(config.horizon / dt))
    timegrid = TimeGrid(config.horizon, steps)
    tag = (f"{config.problem}-{config.solver}-{config.scheme}"
           f"-dt{dt:g}-T{config.horizon:g}-P{config.px}x{config.py}")
    layout, guess, delta = decompose(grid.shape, (1, 1), (0, 0)), None, ""
    if config.solver != "mono":
        delta = config.overlaps[0]
        layout = decompose_2d(config.n, ny, config.px, config.py, delta,
                              convention=config.overlap_convention)
        if config.solver == "method2":
            guess = random_trace_guess(layout.interfaces, config.seed, steps=steps)
    # the error is taken at the final time only
    boxes, trajs, logs = _solve(config, problem, grid, layout, timegrid, guess, final_only=True)
    _record_logs(result, config, tag, logs, levels=4)
    iters = max(log.iterations for log in logs) if logs else ""
    errors = _piece_errors(problem, grid, boxes, [traj[-1:] for traj in trajs], [config.horizon])
    err = max(e.linf_spacetime for e in errors)
    result.summary_rows.append(
        (tag, delta, dt, config.horizon, layout.counts[0],  # P: pieces along x
         config.scheme, config.solver, "", err, "", iters))
    result.notes["error_normalization"] = "absolute max-norm error at the final time"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on the problem family; optionally write CSVs to config.out."""
    result = ExperimentResult(config=config)
    start = time.perf_counter()
    if config.problem == "error_equation":
        _rate_study(config, result)
    elif config.problem == "analytic_1d":
        _accuracy_study_1d(config, result)
    else:
        _accuracy_study_2d(config, result)
    result.wall_time = time.perf_counter() - start
    if "unconverged_runs" in result.notes:
        print(f"letd: warning: {result.notes['unconverged_runs']} run(s) used all "
              f"{config.max_iterations} iterations without meeting the tolerance "
              f"{config.effective_tolerance():g}", file=sys.stderr)
    if config.out is not None:
        result.write(config.out)
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _sweep_of(kind):
    """Flag type of a comma-separated sweep: text -> tuple of `kind` values."""
    def sweep(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))
    return sweep


def _subdomains(text: str) -> tuple:
    """P or PxQ -> (px, py)."""
    px, x, py = text.lower().partition("x")
    return int(px), int(py) if x else 1


def build_parser() -> argparse.ArgumentParser:
    """The table of run settings.  Each flag's dest is an ExperimentConfig
    field (``subdomains`` gives ``px`` and ``py``) and its type builds the
    field's value; flags not given stay out of the namespace, so the
    config's defaults hold."""
    p = argparse.ArgumentParser(
        prog="letd", argument_default=argparse.SUPPRESS,
        description="Localized exponential time differencing experiment runner.")
    p.add_argument("--config", help="key = value file of flag names; explicit flags override it")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--scheme", choices=("etd1", "etd2"))
    p.add_argument("--n", type=int, help="interior nodes per direction")
    p.add_argument("--ny", type=int, help="interior nodes in y (2d only)")
    p.add_argument("--dt", dest="dts", type=_sweep_of(float),
                   help="time step, or comma-separated sweep")
    p.add_argument("--T", dest="horizon", type=float, help="time horizon")
    p.add_argument("--subdomains", type=_subdomains, help="P or PxQ")
    p.add_argument("--overlap-cells", dest="overlaps", type=_sweep_of(int),
                   help="cells, or comma-separated sweep")
    p.add_argument("--overlap-convention", choices=("half", "full"))
    p.add_argument("--tol", dest="tolerance", type=float, help="stopping tolerance")
    p.add_argument("--max-iters", dest="max_iterations", type=int)
    p.add_argument("--fixed-iters", dest="fixed_iterations", type=int, help="fixed sweep budget")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=int, help="number of seeds to average")
    p.add_argument("--window-steps", type=int, help="waveform window length")
    p.add_argument("--out", help="output directory for CSV files")
    return p


def _read_config_file(path: str) -> dict:
    """Settings of a ``key = value`` file, whose keys are flag names spelled
    with ``_`` or ``-``, read by the flag parser; errors raise ValueError."""
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ValueError(f"bad config line {raw!r}")
        tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")

    def fail(message):
        raise ValueError(f"config file {path}: {message}")

    parser = build_parser()
    parser.allow_abbrev = False  # a key names a whole flag
    parser.error = fail
    settings = vars(parser.parse_args(tokens))
    if "config" in settings:
        fail("a config file cannot name another")
    return settings


def _ignored_settings(config: ExperimentConfig) -> dict:
    """Namespace key -> why `config`'s run would not read that setting."""
    ignored = {}
    if config.problem != "analytic_2d":
        ignored["ny"] = f"--ny: problem {config.problem} has no y axis"
        ignored["overlap_convention"] = (f"--overlap-convention: problem {config.problem} "
                                         "widens both sides of a break by --overlap-cells")
    if config.problem == "error_equation":
        for key, flag in (("tolerance", "--tol"), ("max_iterations", "--max-iters")):
            ignored[key] = f"{flag}: a rate study runs a fixed sweep budget"
    if config.solver == "mono":
        for key, flag in (("subdomains", "--subdomains"), ("overlaps", "--overlap-cells"),
                          ("overlap_convention", "--overlap-convention")):
            ignored[key] = f"{flag}: solver mono runs one piece"
        for key, flag in (("tolerance", "--tol"), ("max_iterations", "--max-iters"),
                          ("fixed_iterations", "--fixed-iters")):
            ignored[key] = f"{flag}: solver mono does not iterate"
    if config.problem != "error_equation" and (config.problem, config.solver) != (
            "analytic_2d", "method2"):
        for key in ("seed", "seeds"):
            ignored[key] = (f"--{key}: problem {config.problem} with solver "
                            f"{config.solver} draws no random guess")
    return ignored


def _noted_settings(config: ExperimentConfig) -> dict:
    """Namespace key -> why `config`'s run does not read that setting, for
    settings that come with another that the run reads instead, and are
    noted rather than refused."""
    noted = {}
    if config.problem != "error_equation" and config.fixed_iterations is not None:
        for key, flag in (("tolerance", "--tol"), ("max_iterations", "--max-iters")):
            noted[key] = f"{flag} ignored: --fixed-iters runs a fixed sweep budget"
    if (config.problem, config.solver) == ("analytic_2d", "method2"):
        noted["seeds"] = "--seeds ignored: a 2d method2 run draws one guess, from --seed"
    return noted


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed flags over the settings of their ``--config`` file.  A
    given setting that the run would not read is an error, or, next to the
    setting it reads instead, a note on stderr."""
    settings = dict(vars(args))
    path = settings.pop("config", None)
    if path is not None:
        settings = {**_read_config_file(path), **settings}
    given = set(settings)
    if "subdomains" in settings:
        settings["px"], settings["py"] = settings.pop("subdomains")
    config = ExperimentConfig(**settings)
    ignored = _ignored_settings(config)
    unread = [ignored[key] for key in sorted(given & ignored.keys())]
    if unread:
        raise ValueError("settings this run does not use: " + "; ".join(unread))
    noted = _noted_settings(config)
    for key in sorted(given & noted.keys()):
        print(f"letd: note: {noted[key]}", file=sys.stderr)
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = run_experiment(config)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"letd: {exc}", file=sys.stderr)
        return 2
    if config.out is None:
        sys.stdout.write(result.summary_csv())
    else:
        print(f"wrote {Path(config.out) / 'summary.csv'} "
              f"and {Path(config.out) / 'decay.csv'} "
              f"({result.wall_time:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
