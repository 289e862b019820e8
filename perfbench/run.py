"""letd benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload table_1d --seed 0 --seconds 30 --trace 0

With --trace 0 the workload is repeated, untraced, until --seconds have
passed, after set-up has been timed in fresh interpreters; the metrics
are the end-to-end ones, and each run's time is scaled to the reference
machine speed by slices of fixed work timed all through it (calibrate.py).
With --trace 1 untraced and traced runs alternate and the metrics are the
per-layer ones.  Every summary row is checked against the acceptance
tests' frozen targets and against reference rows recorded from a
known-good commit (reference.json).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedProbe, warm_up
from setup_probe import REFERENCE_IMPORTS_S
from tracer import LAYERS, Tracer
from workloads import (ITERS, WORKLOADS, c06_report, row_problem, tolerance_budget)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
#: fresh-interpreter set-up timings per run; the median is reported
SETUP_PROBES = 5
#: the seed is reduced modulo this many recorded reference seeds
SEED_CLASSES = 10
#: iteration counts that must match the reference; other counts may change
GATED_COUNTS = ("schwarz.sweeps", "schwarz.levels", "schwarz.unconverged")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


def import_letd():
    """Import letd from this checkout's sources, never from elsewhere."""
    if not (SRC / "letd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no letd sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import letd
    import letd.harness  # noqa: F401  (loads every letd module)
    if Path(letd.__file__).resolve().parent != (SRC / "letd").resolve():
        raise SystemExit(f"perfbench: letd imported from {letd.__file__}, not {SRC}")
    return letd


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "letd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, config_seed: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "config_seed": config_seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "letd_source_sha256": source_digest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def probe(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def time_setup(workload: str, seed: int) -> tuple:
    """Set-up times of fresh interpreters, each scaled to the reference
    machine speed by the mean of the --imports probes just before and just
    after it.  Returns (raw times, import times, scaled times)."""
    imports = [probe("--imports")["imports_s"]]
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(probe(workload, str(seed))["setup_s"])
        imports.append(probe("--imports")["imports_s"])
    scaled = [s * 2 * REFERENCE_IMPORTS_S / (before + after)
              for s, before, after in zip(setup, imports, imports[1:])]
    return setup, imports, scaled


def read_body(path: Path) -> list:
    """CSV lines after the '#' header, whose wall time varies run to run."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class Rep:
    """One full run of a workload: wall time plus the checked outputs.

    With `probe`, the machine speed is sampled during the run; `wall` is
    then the wall time less the sampling, and `wall_ref` that time at the
    reference machine speed.
    """

    def __init__(self, workload, letd, seed: int, ref_rows: dict, out: Path, tracer=None,
                 probe: bool = False):
        gc.collect()
        errors = {}
        patched = tracer.installed(letd) if tracer else contextlib.nullcontext()
        speed = SpeedProbe() if probe else None
        with patched, speed or contextlib.nullcontext():
            start = time.perf_counter()
            for exp in workload.experiments:
                try:
                    exp.run(letd.harness, seed, str(out / exp.label))
                except Exception:  # a failed experiment fails its rows; keep measuring
                    errors[exp.label] = traceback.format_exc()
            self.wall = time.perf_counter() - start
        if speed:
            self.wall -= speed.handler_s
            self.wall_ref = self.wall * speed.speed_factor
            self.slices = speed.slices
        self.attempted = self.failed = self.sweeps = 0
        self.problems, self.rows = [], []
        digest = hashlib.sha256()
        for exp in workload.experiments:
            ref = ref_rows[exp.label]
            if exp.label in errors:
                self.attempted += len(ref)
                self.failed += len(ref)
                self.problems.append(f"{exp.label} raised:\n{errors[exp.label]}")
                digest.update(b"raised")
                continue
            summary = read_body(out / exp.label / "summary.csv")
            decay = read_body(out / exp.label / "decay.csv")
            digest.update("\n".join(summary + ["", ""] + decay).encode() + b"\0")
            rows = [line.split(",") for line in summary[1:]]
            budget = tolerance_budget(exp.experiment_config(letd.harness, seed, str(out)))
            for i in range(max(len(rows), len(ref))):
                self.attempted += 1
                if i >= len(rows):
                    problem = "row missing"
                else:
                    ref_row = ref[i].split(",") if i < len(ref) else None
                    problem = row_problem(rows[i], ref_row, budget)
                if problem:
                    self.failed += 1
                    self.problems.append(f"{exp.label} row {i}: {problem}")
                else:
                    self.sweeps += int(rows[i][ITERS] or 0)
                    self.rows.append(rows[i])
        self.digest = digest.hexdigest()
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (times in s, counts exact)."""
    own = tracer.self_times()
    c = tracer.counts
    out = {
        "matfunc.dst.calls": c["matfunc.dst.calls"],
        "matfunc.dst.values": c["matfunc.dst.values"],
        # float64 input plus output of each transform, computed from sizes
        "matfunc.dst.mb_computed": c["matfunc.dst.values"] * 16 / 1e6,
        "geometry.forcing.calls": c["geometry.forcing.calls"],
        "schwarz.exchange.calls": c["schwarz.exchange.calls"],
        "schwarz.sweeps": c["schwarz.sweeps"],
        "schwarz.levels": c["schwarz.levels"],
        "schwarz.unconverged": c["schwarz.unconverged"],
    }
    for layer in LAYERS:
        out["harness.write_s" if layer == "harness.write" else f"{layer}.self_s"] = own[layer]
    return out


UNITS = {"wall_ref_s": "s", "sweeps_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_ratio": "ratio", "matfunc.dst.mb_computed": "MB", "trace.overhead_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    letd = import_letd()
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    config_seed = args.seed % SEED_CLASSES
    ref_rows = reference["rows"][str(config_seed) if workload.seeded else "any"]
    env = environment(args, config_seed)
    print(json.dumps({"env": env}), flush=True)

    if not args.trace:
        setup, imports, setup_ref = time_setup(workload.name, config_seed)
    warm_up()
    run_dir = OUT / f"run-{os.getpid()}"
    reps, traced, tracer = [], [], None
    try:
        # With tracing, a first untraced run warms the process up so that the
        # traced/untraced pairs compare like with like.
        warmup = [Rep(workload, letd, config_seed, ref_rows, run_dir / "warmup")] \
            if args.trace else []
        deadline = time.perf_counter() + args.seconds
        while True:
            rep = Rep(workload, letd, config_seed, ref_rows, run_dir / f"rep{len(reps)}",
                      probe=not args.trace)
            reps.append(rep)
            cycle = rep.wall
            if args.trace:
                tracer = Tracer()
                rep = Rep(workload, letd, config_seed, ref_rows,
                          run_dir / f"traced{len(traced)}", tracer)
                traced.append((rep, layer_metrics(tracer)))
                cycle += rep.wall
            if time.perf_counter() + cycle > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    every = warmup + reps + [rep for rep, _ in traced]
    print(json.dumps({"runs_wall_s": {"warmup": [r.wall for r in warmup],
                                      "untraced": [r.wall for r in reps],
                                      "traced": [r.wall for r, _ in traced]}}))
    if not args.trace:
        print(json.dumps({"setup_s": setup, "imports_s": imports, "setup_ref_s": setup_ref}))
        print(json.dumps({"runs_wall_ref_s": [r.wall_ref for r in reps],
                          "mean_slice_s": [statistics.fmean(r.slices) for r in reps]}))
    problems = [p for rep in every for p in rep.problems]
    if len({rep.digest for rep in every}) != 1:
        problems.append("CSV bodies differ between runs (traced and untraced included)")
    for line in filter(None, map(c06_report, reps[0].rows)):
        print(f"known failing C06 (not gated): {line}")

    wall = statistics.median(rep.wall for rep in reps)
    if args.trace:
        layers = [m for _, m in traced]
        metrics = dict(layers[0])
        for name in metrics:
            if unit_of(name) == "s":
                metrics[name] = statistics.median(m[name] for m in layers)
            elif any(m[name] != layers[0][name] for m in layers):
                problems.append(f"{name} differs between traced runs")
        for name, want in reference["counts"].items():
            if metrics[name] == want:
                continue
            if name in GATED_COUNTS:
                problems.append(f"{name} = {metrics[name]}, reference {want}")
            else:
                print(f"count changed from reference (not gated): {name} = "
                      f"{metrics[name]}, reference {want}")
        metrics["trace.overhead_s"] = statistics.median(rep.wall for rep, _ in traced) - wall
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{workload.name}-seed{args.seed}.npz",
                    {"env": env, "wall_s": traced[-1][0].wall})
    else:
        attempted = sum(rep.attempted for rep in reps)
        wall_ref = statistics.median(rep.wall_ref for rep in reps)
        metrics = {
            "wall_ref_s": wall_ref,
            "sweeps_per_ref_s": reps[0].sweeps / wall_ref,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - sum(rep.failed for rep in reps)) / attempted,
        }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in every),
        "failed": sum(rep.failed for rep in every),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
