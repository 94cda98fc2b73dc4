"""The three benchmark workloads and the closed loop that times them.

Each workload runs in one Python process with one client: the next
operation starts only after the previous one returned.  The loop runs
whole passes over the seeded operation list until ``seconds`` have
passed, so every pass holds the same operations and the failure count
per pass is exact for a seed.

* ``cli_single``   -- single-input CLI jobs through ``cli_interface.main``;
  ``calibrate_model`` runs inside every job.  The edge inputs are probes:
  they run once per run, outside the timed loop, and are reported apart.
* ``sampling_sweep`` -- ``symbols`` at ``SYMBOLS_SAMPLES`` samples, then
  ``stiefel`` and ``selftest`` at their default flags; the seeded
  per-sample loops dominate.
* ``library_batch`` -- public API calls on a model calibrated once in
  set-up, with algebras up to so(7) (d = 21).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import verify

SYMBOLS_SAMPLES = 200
SETUP_REPEATS = 7
PACKAGE = "artifact"


@dataclass
class Op:
    """One operation; a ``probe`` runs once, outside the timed loop."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], verify.Verdict]
    probe: bool = False


@dataclass
class Package:
    """Handles on the freshly imported package modules."""

    modules: dict
    model: object
    algebras: dict


def purge_package() -> None:
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load_package(build_algebras: bool) -> Package:
    """``import artifact``, the first ``calibrate_model()`` and, when asked,
    the algebras of ``library_batch``: what a fresh process needs before
    its first operation."""
    importlib.import_module(PACKAGE)
    modules = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith(PACKAGE + ".")
    }
    model = modules["flat_model"].calibrate_model()
    algebras = {}
    if build_algebras:
        lie = modules["lie_algebra"]
        algebras = {
            "su2": lie.make_su(2), "so3": lie.make_so(3),
            "so5": lie.make_so(5), "so7": lie.make_so(7),
        }
    return Package(modules, model, algebras)


def time_setup(build_algebras: bool, src: Path) -> tuple:
    """Seconds for one fresh set-up, and the package it produced."""
    purge_package()
    start = time.perf_counter()
    package = load_package(build_algebras)
    seconds = time.perf_counter() - start
    origin = Path(package.modules["flat_model"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"{PACKAGE} was imported from {origin}, "
                           f"not from {src}")
    return seconds, package


class SetupSampler:
    """Set-up times taken at even intervals across a run.

    The first set-up readies the package for the loop; the others re-import
    it between passes (the operations keep the modules they were built
    with), so the median does not hinge on the machine's speed in the
    first second of the run.
    """

    def __init__(self, build_algebras: bool, src: Path, seconds: float):
        self.build_algebras = build_algebras
        self.src = src
        self.interval = seconds / SETUP_REPEATS
        first, self.package = time_setup(build_algebras, src)
        self.times = [first]

    def between_passes(self, elapsed: float) -> None:
        taken = len(self.times)
        if taken < SETUP_REPEATS and elapsed >= taken * self.interval:
            self.sample()

    def sample(self) -> None:
        self.times.append(time_setup(self.build_algebras, self.src)[0])

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def run_cli(main, argv: list) -> verify.CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # the contract forbids it; record and go on
        return verify.CliOutcome(None, out.getvalue(), err.getvalue(),
                                 f"{type(exc).__name__}: {exc}")
    return verify.CliOutcome(code, out.getvalue(), err.getvalue())


def cli_single_ops(package: Package, seed: int, workdir: Path,
                   references=None) -> list:
    cli = package.modules["cli_interface"]
    ops = []
    for index, job in enumerate(inputs.cli_single_jobs(seed)):
        argv = [job.command, "--format", job.fmt]
        text = job.input_text()
        if text is not None:
            path = workdir / f"job{index:03d}.json"
            path.write_text(text)
            argv += ["--input", str(path)]

        def check(outcome, job=job,
                  ref=references[index] if references else None):
            return verify.check_cli(
                job.command, job.fmt, outcome, job.kind,
                expect_success=job.edge is None, reference=ref,
            )

        ops.append(Op(job.command,
                      lambda argv=argv: run_cli(cli.main, argv), check,
                      probe=job.edge is not None))
    return ops


def sampling_sweep_ops(package: Package, seed: int, workdir: Path,
                       references=None) -> list:
    cli = package.modules["cli_interface"]
    jobs = (
        ("symbols", ["--samples", str(SYMBOLS_SAMPLES)]),
        ("stiefel", []),
        ("selftest", []),
    )
    ops = []
    for index, (command, flags) in enumerate(jobs):
        argv = [command, "--seed", str(seed)] + flags

        def check(outcome, command=command,
                  ref=references[index] if references else None):
            return verify.check_cli(command, "json", outcome,
                                    expect_success=True, reference=ref)

        ops.append(Op(command, lambda argv=argv: run_cli(cli.main, argv),
                      check))
    return ops


def _split_summary(split, vector: np.ndarray) -> dict:
    parts = split.as_dict()
    total = sum(part.to_vector() for part in parts.values())
    flat = {f"parts.{label}.norm": float(np.linalg.norm(p.to_vector()))
            for label, p in parts.items()}
    flat["input_norm"] = float(np.linalg.norm(vector))
    flat["reassembly_residual"] = float(np.max(np.abs(total - vector)))
    return flat


def _bidegree_summary(split, vector: np.ndarray) -> dict:
    horizontal = sum(
        (part.to_vector() for part in split.parts.values()),
        np.zeros(len(inputs.REAL_KEYS), dtype=complex),
    )
    # eta = e^7, so eta ^ b puts -b_i on the key (i, 7)
    remainder = np.zeros(len(inputs.REAL_KEYS), dtype=complex)
    for part in split.eta_parts.values():
        remainder[inputs.VERTICAL_ROWS] -= part.to_vector()[:6]
    flat = {
        f"part.{p}{q}.norm": float(np.linalg.norm(form.to_vector()))
        for (p, q), form in split.parts.items()
    }
    flat["types"] = " ".join(sorted(f"{p},{q}" for p, q in split.parts))
    flat["eta_types"] = " ".join(
        sorted(f"{p},{q}" for p, q in split.eta_parts)
    )
    flat["input_norm"] = float(np.linalg.norm(vector))
    flat["reassembly_residual"] = float(
        np.max(np.abs(horizontal + remainder - vector))
    )
    return flat


def library_batch_ops(package: Package, seed: int, workdir: Path,
                      references=None) -> list:
    m = package.modules
    model = package.model
    kform = m["flat_model"].KForm
    gform = m["gauge_fields"].GValuedForm
    ricci3 = m["weitzenbock_engine"].TransverseRicci.einstein(8.0)
    ricci7 = m["ym_stability"].RicciTensor7.einstein(6.0)
    ops = []
    for index, call in enumerate(inputs.library_calls(seed)):
        name = call.function
        if call.algebra is None:
            vector = call.coefficients
            arg = kform.from_vector(2, vector)
            summary = {"project": _split_summary,
                       "bidegree_split": _bidegree_summary}[name]
            module = m["form_decomposition"]

            def invoke(module=module, name=name, arg=arg):
                return getattr(module, name)(arg, model)

            def summarize(result, summary=summary, vector=vector):
                return summary(result, vector)
        else:
            arg = gform.from_matrix(package.algebras[call.algebra], 2,
                                    call.coefficients)
            module, extra = {
                "instanton_classify": (m["gauge_fields"], ()),
                "vanishing_report": (m["weitzenbock_engine"], (ricci3,)),
                "stability_report": (m["ym_stability"], (ricci7,)),
            }[name]

            def invoke(module=module, name=name, arg=arg, extra=extra):
                return getattr(module, name)(arg, *extra, model)

            summarize = verify.flatten

        def run(invoke=invoke):
            try:
                return invoke()
            except Exception as exc:  # counted as a failed call
                return exc

        def check(result, name=name, kind=call.kind, summarize=summarize,
                  ref=references[index] if references else None):
            if isinstance(result, Exception):
                return verify.Verdict(
                    f"{name} raised {type(result).__name__}: {result}"
                )
            return verify.check_summary(name, summarize(result), kind, ref)

        label = name if call.algebra is None else f"{name}@{call.algebra}"
        ops.append(Op(label, run, check))
    return ops


@dataclass
class Workload:
    """``op_quantile`` is the percentile over the passes of a run that
    stands for an operation's latency (see :func:`op_latencies`)."""

    name: str
    build_algebras: bool
    make_ops: Callable
    op_quantile: float = 90.0


WORKLOADS = {
    w.name: w for w in (
        Workload("cli_single", False, cli_single_ops),
        # three jobs of 0.5-2 s a pass and about a dozen passes a run:
        # each job's slowest pass repeats best from run to run
        Workload("sampling_sweep", False, sampling_sweep_ops, 100.0),
        Workload("library_batch", True, library_batch_ops),
    )
}


@dataclass
class LoopResult:
    kinds: list          # kind of each executed operation
    latencies: list      # seconds, one per executed operation
    failed: list         # bool per executed operation
    failures: dict       # failure reason -> count
    wrong: int
    passes: int
    wall_s: float
    flats: list          # flattened reports of the first pass


def run_loop(ops: list, seconds: float, recorder=None,
             between_passes=None) -> LoopResult:
    """Closed loop over whole passes of ``ops`` for at least ``seconds``.

    ``between_passes`` is called with the elapsed seconds after each pass.
    """
    kinds, latencies, failed = [], [], []
    failures: dict = {}
    wrong = 0
    flats = []
    passes = 0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    with warnings.catch_warnings():
        # a fresh process shows each warning of its one job
        warnings.simplefilter("always")
        while passes == 0 or clock() < deadline:
            for op in ops:
                if recorder is not None:
                    recorder.begin_op(len(latencies))
                t0 = clock()
                result = op.call()
                t1 = clock()
                if recorder is not None:
                    recorder.begin_op(-1)
                verdict = op.check(result)
                kinds.append(op.kind)
                latencies.append(t1 - t0)
                failed.append(verdict.failure is not None)
                if verdict.failure is not None:
                    failures[verdict.failure] = \
                        failures.get(verdict.failure, 0) + 1
                    wrong += verdict.wrong
                if passes == 0:
                    flats.append(None if verdict.failure else verdict.flat)
            passes += 1
            if between_passes is not None:
                between_passes(clock() - start)
    return LoopResult(kinds, latencies, failed, failures, wrong, passes,
                      clock() - start, flats)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def op_latencies(loop: LoopResult, quantile: float) -> tuple:
    """Latency of each operation of a pass, as its ``quantile``-th
    percentile over the passes of the run, and whether it failed in any
    pass.

    On a shared machine identical work runs at a sustained speed with
    shorter, faster phases while the other tenants idle, and how much of a
    run falls in fast phases changes from run to run.  A high percentile
    of each operation sits on the sustained speed and repeats from run to
    run; the median or the best of the passes follow the fast phases.
    """
    shape = (loop.passes, len(loop.latencies) // loop.passes)
    latencies = np.asarray(loop.latencies).reshape(shape)
    failed = np.asarray(loop.failed).reshape(shape)
    return np.percentile(latencies, quantile, axis=0), failed.any(axis=0)


def end_to_end(loop: LoopResult, quantile: float) -> dict:
    """Operation metrics of one run from the per-operation latencies:
    throughput is the pass size over the sum of the latencies, failed
    operations included (they are counted on their own); p50 and p90 are
    taken over the operations of a pass that succeeded."""
    latency, failed = op_latencies(loop, quantile)
    ok = latency[~failed]
    return {
        "ops_per_s": (len(latency) / float(latency.sum()), "1/s"),
        "op_p50_ms": (percentile(ok, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(ok, 90) * 1e3, "ms"),
    }


def sweep_metrics(loop: LoopResult, quantile: float) -> dict:
    """Per-job figures of ``sampling_sweep`` from the per-operation
    latencies.

    The covector count is the ``full.samples`` field of the ``symbols``
    report: every covector runs through both complexes at d = 1 and 3.
    """
    latency, failed = op_latencies(loop, quantile)
    out = {}
    for kind, flat, seconds, bad in zip(loop.kinds, loop.flats, latency,
                                        failed):
        if bad:
            continue
        if kind == "symbols":
            out["symbols_covectors_per_s"] = (
                flat["full.samples"] / float(seconds), "1/s"
            )
        elif kind in ("stiefel", "selftest"):
            out[f"{kind}_s"] = (float(seconds), "s")
    return out
