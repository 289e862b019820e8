"""Record perfbench/reference.json from the letd sources of this checkout.

    python3 perfbench/record_reference.py [workload ...]

For every workload (or only the named ones) this stores the summary-CSV
rows of each experiment, for seeds 0..SEED_CLASSES-1 when the seed changes
the inputs and once otherwise, plus the iteration counts a traced run
reports.  Re-record only from a commit whose results are known to be
right: the benchmark gates every later commit against these rows.
"""
import contextlib
import json
import shutil
import sys

from run import OUT, REFERENCE, SEED_CLASSES, import_letd, read_body
from tracer import Tracer
from workloads import WORKLOADS


def record(letd, workload, seed: int, tracer=None) -> dict:
    out = OUT / f"record-{workload.name}-{seed}"
    rows = {}
    try:
        with tracer.installed(letd) if tracer else contextlib.nullcontext():
            for exp in workload.experiments:
                exp.run(letd.harness, seed, str(out / exp.label))
                rows[exp.label] = read_body(out / exp.label / "summary.csv")[1:]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rows


def main() -> None:
    letd = import_letd()
    names = sys.argv[1:] or list(WORKLOADS)
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    data["seed_classes"] = SEED_CLASSES
    for name in names:
        workload = WORKLOADS[name]
        seeds = range(SEED_CLASSES) if workload.seeded else [0]
        rows = {str(s) if workload.seeded else "any": record(letd, workload, s) for s in seeds}
        tracer = Tracer()
        record(letd, workload, 0, tracer)
        data["workloads"][name] = {"rows": rows, "counts": tracer.counts}
        print(f"recorded {name}: {len(rows)} seed(s), counts {data['workloads'][name]['counts']}",
              flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
