"""Record the reference reports the benchmark compares against.

    python3 benchmarks/record_reference.py

runs one pass of every workload at the reference seed and writes the
flattened report of each successful operation to
``benchmarks/reference/<workload>.json``.  Run it only on the commit
whose outputs are to be the reference; the benchmark then checks the
numeric fields of the same operations within a relative 1e-9.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        _, package = workloads.time_setup(workload.build_algebras, run.SRC)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            ops = workload.make_ops(package, run.REFERENCE_SEED, Path(tmp))
            loop = workloads.run_loop(ops, 0.0)
        if loop.wrong:
            raise SystemExit(f"{name}: a report broke its invariants")
        record = {
            "workload": name,
            "seed": run.REFERENCE_SEED,
            "git_commit": run.git_commit(run.ROOT),
            "kinds": loop.kinds,
            "flats": loop.flats,
        }
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        print(f"{path.name}: {len(loop.flats)} operations, "
              f"{sum(f is None for f in loop.flats)} without a report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
