"""Benchmark of the ``artifact`` package: one workload per run, or all.

One run::

    python3 benchmarks/run.py --workload cli_single --seed 0 \
        --seconds 35 --trace 0

runs one workload in this fresh process against the package under
``src/`` of the checkout this file sits in, checks every output and
prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the public
functions of each package module are wrapped and the metrics are the
per-layer ones derived from the recorded spans, which are also written to
``.bench_traces/``.  The line before it, starting with ``report``, holds
every figure of the run with its provenance.

The edge inputs of ``cli_single`` run once per run, untimed, after the
loop.  They reach known contract defects of the package, so their
outcomes go to ``edge_failed_ratio`` and the ``edge_probes`` entry of the
``report`` line and not into ``attempted`` or ``failed``, which count the
timed operations only; a wrong answer from a probe still makes the run
incorrect.

All workloads::

    python3 benchmarks/run.py --suite --seed 0 --seconds 35

runs each workload untraced and then traced, one fresh process at a
time, prints every metric by name and unit with the tracing overhead, and
writes ``BENCH_<label>.json`` at the root of the checkout.

BLAS runs single-threaded unless ``OPENBLAS_NUM_THREADS`` (and friends)
are set: one client on a small machine, and no threads the benchmark did
not ask for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
TRACE_DIR = ROOT / ".bench_traces"
WORK_DIR = ROOT / ".bench_work"
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def git_commit(root: Path):
    """Commit of the checkout read from ``.git``, or ``None`` outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or ``None``."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def provenance(args, traced: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "package_version": sys.modules["artifact"].__version__,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "symbols_samples": workloads.SYMBOLS_SAMPLES,
        "op_quantile": workloads.WORKLOADS[args.workload].op_quantile,
        "setup_repeats": workloads.SETUP_REPEATS,
        "traced": traced,
    }


def load_references(workload: str, seed: int):
    """Reference reports of the reference seed, with the operation kinds
    they belong to; ``None`` for any other seed."""
    if seed != REFERENCE_SEED:
        return None
    record = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    return record["kinds"], record["flats"]


def run_workload(args) -> int:
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'artifact'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("ARTIFACT_")]:
        del os.environ[key]  # the CLI reads its flags from these
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)

    setup = workloads.SetupSampler(workload.build_algebras, SRC,
                                   args.seconds)
    package = setup.package
    recorder = None
    if traced:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    references = load_references(workload.name, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        ops = workload.make_ops(package, args.seed, Path(tmp),
                                references and references[1])
        if references and [op.kind for op in ops] != references[0]:
            raise RuntimeError("reference reports belong to other inputs")
        loop = workloads.run_loop([op for op in ops if not op.probe],
                                  args.seconds, recorder,
                                  setup.between_passes)
        # edge inputs: one untimed pass, outside every operation's spans
        probes = workloads.run_loop([op for op in ops if op.probe], 0.0) \
            if any(op.probe for op in ops) else None
    setup_s = setup.median()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(loop.latencies)
    failed = sum(loop.failed)
    figures = {"setup_s": (setup_s, "s")}
    figures.update(workloads.end_to_end(loop, workload.op_quantile))
    figures["peak_rss_mb"] = (peak_rss_mb, "MB")
    figures["failed_ratio"] = (failed / attempted, "ratio")
    if probes is not None:
        figures["edge_failed_ratio"] = (
            sum(probes.failed) / len(probes.failed), "ratio"
        )
    figures.update(workloads.sweep_metrics(loop, workload.op_quantile))

    if traced:
        covector_ops = [i for i, kind in enumerate(loop.kinds)
                        if kind == "symbols"]
        covectors = sum(
            flat["full.samples"]
            for kind, flat in zip(loop.kinds, loop.flats)
            if kind == "symbols" and flat is not None
        ) * loop.passes
        metrics = tracing.layer_metrics(recorder, attempted, covector_ops,
                                        covectors)
        metrics["trace.op_p50_ms"] = figures["op_p50_ms"]
        metrics["trace.ops"] = (attempted, "count")
        metrics["trace.spans"] = (len(recorder), "count")
    else:
        metrics = {name: figures[name] for name in END_TO_END}

    prov = provenance(args, traced)
    if traced:
        TRACE_DIR.mkdir(exist_ok=True)
        recorder.save(TRACE_DIR / f"{workload.name}-seed{args.seed}.npz",
                      json.dumps(prov))
    report = {
        "provenance": prov,
        "figures": {k: {"value": v, "unit": u}
                    for k, (v, u) in figures.items()},
        "samples": {"ops": attempted, "completed": attempted - failed,
                    "passes": loop.passes, "ops_per_pass": len(ops),
                    "setup_times_s": setup.times},
        "failures": loop.failures,
        "wall_s": loop.wall_s,
    }
    if probes is not None:
        report["edge_probes"] = {
            "attempted": len(probes.failed),
            "failed": sum(probes.failed),
            "wrong": probes.wrong,
            "failures": probes.failures,
        }
    print(f"{workload.name} seed {args.seed} traced {int(traced)}: "
          f"{loop.passes} passes, {attempted} operations, {failed} failed")
    for name, (value, unit) in figures.items():
        print(f"  {name:<26} {value:14.6g} {unit}")
    for reason, count in sorted(loop.failures.items()):
        print(f"  failure x{count}: {reason}")
    if probes is not None:
        print(f"  edge probes: {sum(probes.failed)} of {len(probes.failed)} "
              "failed (known contract defects, not counted in failed)")
        for reason, count in sorted(probes.failures.items()):
            print(f"  edge failure x{count}: {reason}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": loop.wrong == 0 and not (probes and probes.wrong),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    report = json.loads(
        next(ln for ln in lines if ln.startswith("report "))[7:]
    )
    report["result"] = json.loads(lines[-1])
    return report


def run_suite(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        base = plain["figures"]["op_p50_ms"]["value"]
        overhead = traced["figures"]["op_p50_ms"]["value"] / base - 1.0
        results[name] = {"untraced": plain, "traced": traced,
                         "trace_overhead_p50": overhead}
        print(f"== {name}  (seed {args.seed}, {plain['samples']['ops']} ops, "
              f"correct {plain['result']['correct']})")
        for metric, entry in plain["figures"].items():
            print(f"  {metric:<44} {entry['value']:14.6g} {entry['unit']}")
        print(f"  {'trace overhead on op_p50_ms':<44} {overhead:14.2%}")
        for metric, entry in traced["result"]["metrics"].items():
            print(f"  {metric:<44} {entry['value']:14.6g} {entry['unit']}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--suite", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local",
                        help="suite output name: BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.suite == (args.workload is not None):
        parser.error("give exactly one of --workload and --suite")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.suite:
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
