"""Time letd set-up in a fresh interpreter and print it as one JSON line.

Set-up is importing letd, then building every grid, layout, factorization,
workspace and piece set the workload's configurations need, without
solving.  Most of it is importing numpy and scipy, so the benchmark
calibrates it with a second kind of probe: a fresh interpreter that
imports only the third-party modules letd imports, which no change to
letd can change.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
       python3 perfbench/setup_probe.py --imports
"""
import importlib
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_setup

#: the third-party modules letd imports
THIRD_PARTY = ("numpy", "scipy.fft", "scipy.linalg")
#: --imports time, in s, of the machine the reference numbers were recorded
#: on (2 vCPU Intel Xeon at 2.0 GHz, python 3.11, numpy 2.4, scipy 1.17)
REFERENCE_IMPORTS_S = 0.4


def main() -> None:
    if sys.argv[1] == "--imports":
        start = time.perf_counter()
        for name in THIRD_PARTY:
            importlib.import_module(name)
        print(json.dumps({"imports_s": time.perf_counter() - start}))
        return

    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import letd.harness as harness

    pieces = sum(build_setup(exp.experiment_config(harness, seed, "unused"))
                 for exp in workload.experiments)
    print(json.dumps({"setup_s": time.perf_counter() - start, "pieces": pieces}))


if __name__ == "__main__":
    main()
