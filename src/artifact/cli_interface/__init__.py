"""Command line front end: load data, run analyses, emit reports.

This module is the command line only: flags and their environment
fallbacks, input parsing, one table of commands and report encoding.
The analyses live in the package modules, and the suites behind
``selftest`` in :mod:`artifact.selftest`, whose ``run_selftest`` is
re-exported here.

The tool is installed as ``artifact``.  Every run performs one job:

    artifact <command> [--input FILE] [--output FILE] [--seed N]
                       [--samples N] [--tol X] [--format json|csv]

Commands
    calibrate   print the calibrated model constants
    decompose   split a 2-form into the four eigenvalue blocks
    classify    type label of an algebra-valued 2-form
    spectrum    spectra of the curvature and Ricci endomorphisms
    vanishing   positivity verdict for the combined endomorphism
    stability   second-variation verdict for the curvature energy
    symbols     exactness survey of both symbol complexes
    stiefel     full pipeline on the homogeneous example
    selftest    every dual-route oracle suite in one run

Exit codes: 0 success, 1 analysis produced a failing verdict,
2 malformed input or configuration.

Flags fall back to environment variables named after the tool
(``ARTIFACT_SEED``, ``ARTIFACT_SAMPLES``, ``ARTIFACT_TOL``,
``ARTIFACT_FORMAT``, ``ARTIFACT_INPUT``, ``ARTIFACT_OUTPUT``), then to
the defaults seed 0, samples 10000, tolerance 1e-9, format json.
The report goes to stdout unless ``--output`` names a file.

Input schema (JSON).  Complex numbers are two-element arrays
``[re, im]``; plain numbers are accepted where the imaginary part is
zero.  An algebra-valued 2-form is an object

    {
      "algebra": "so3" | "su2" | "su2_trace" | "so5" | "abelian<d>"
                 | {"name": str, "matrices": [[[..]..]..], "inner": str},
      "basis": "w" | "real" | "complex",
      "components": { ... }
    }

with ``d`` of ``"abelian<d>"`` between 1 and 64, and with components
keyed per basis: ``"w"`` uses ``"w1"`` .. ``"w8"`` with
real coefficient vectors; ``"real"`` uses ascending coframe index pairs
such as ``"12"`` or ``"37"``; ``"complex"`` uses comma-separated symbol
pairs such as ``"1,-2"`` (positive j for the j-th holomorphic
direction, negative for its conjugate, 0 for the vertical direction).
Each value is a coefficient vector of the algebra dimension; a bare
number is accepted for 1-dimensional algebras.  The vectors of a custom
algebra stay in the payload's own basis, the order of ``"matrices"``;
when that basis is re-based at parse time they are mapped into the new
one.  Optional fields:
``"ricci"`` (3x3 nested arrays, Hermitian) feeds the transverse Ricci
endomorphism, ``"ricci7"`` (7x7 nested arrays, symmetric) feeds the
second-variation operator.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..flat_model import REEB_INDEX, calibrate_model, calibration_constants
from ..form_decomposition import _SYMBOL_RANK, project_vectors
from ..lie_algebra import (
    algebra_from_basis,
    coeffs_of,
    make_abelian,
    make_so,
    make_su,
)
from ..gauge_fields import (
    GValuedForm,
    gform_from_complex_components,
    gform_from_w_coefficients,
    instanton_classify,
)
from ..weitzenbock_engine import (
    TransverseRicci,
    build_F_operator,
    combined_spectra,
    vanishing_report,
)
from ..ym_stability import RicciTensor7, stability_report
from ..deformation_symbols import (
    BASIC_B,
    FULL_C,
    batch_exactness,
    build_quotient_spaces,
)
from ..stiefel_example import stiefel_report
from ..selftest import run_selftest

__all__ = [
    "ENV_PREFIX",
    "JobConfig",
    "InputError",
    "build_parser",
    "load_payload",
    "parse_algebra",
    "parse_gform",
    "to_jsonable",
    "encode_report",
    "run",
    "run_selftest",
    "main",
]

ENV_PREFIX = "ARTIFACT"

_DEFAULT_SEED = 0
_DEFAULT_SAMPLES = 10000
_DEFAULT_TOL = 1e-9
_DEFAULT_FORMAT = "json"

# largest d of ``abelian<d>``: its structure constants take d**3 entries
_MAX_ABELIAN_DIM = 64


class InputError(Exception):
    """Malformed input file, field, flag, or environment value."""


@dataclass(frozen=True)
class JobConfig:
    """One batch job: a command plus fully resolved options."""

    command: str
    input_path: str | None
    output_path: str | None
    seed: int
    samples: int
    tolerance: float
    format: str

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InputError("tolerance must be a positive finite number")
        if self.samples < 1:
            raise InputError("samples must be at least 1")
        if self.format not in ("json", "csv"):
            raise InputError(
                f"format must be 'json' or 'csv', not {self.format!r}"
            )


def _env_value(flag: str):
    return os.environ.get(f"{ENV_PREFIX}_{flag.upper()}")


def _resolve(explicit, flag: str, default, cast):
    """Precedence: command line flag, environment variable, default."""
    if explicit is not None:
        return explicit
    raw = _env_value(flag)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"environment variable {ENV_PREFIX}_{flag.upper()} "
            f"has invalid value {raw!r}: {exc}"
        ) from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Sharing is safe: parsing does not change the parser, and no default
    reads the environment (:func:`config_from_args` resolves the
    ``ARTIFACT_*`` fallbacks on every call).
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON file")
    common.add_argument("--output", help="write the report here")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument(
        "--samples", type=int, help="sample count (default 10000)"
    )
    common.add_argument(
        "--tol", type=float, help="numerical tolerance (default 1e-9)"
    )
    common.add_argument(
        "--format", choices=("json", "csv"), help="report format"
    )
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="pointwise analyses of gauge fields on the "
        "7-dimensional contact model fiber",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    return JobConfig(
        command=args.command,
        input_path=_resolve(args.input, "input", None, str),
        output_path=_resolve(args.output, "output", None, str),
        seed=_resolve(args.seed, "seed", _DEFAULT_SEED, int),
        samples=_resolve(args.samples, "samples", _DEFAULT_SAMPLES, int),
        tolerance=_resolve(args.tol, "tol", _DEFAULT_TOL, float),
        format=_resolve(args.format, "format", _DEFAULT_FORMAT, str),
    )


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def load_payload(path: str | None) -> dict:
    if path is None:
        raise InputError("this command requires --input")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise InputError("top-level input must be a JSON object")
    return payload


def _finite(number, field: str) -> float:
    try:
        out = float(number)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InputError(f"field {field!r}: numbers must be finite")
    return out


def _complex_scalar(value, field: str) -> complex:
    if isinstance(value, bool):
        raise InputError(f"field {field!r}: expected a number")
    if isinstance(value, (int, float)):
        return complex(_finite(value, field), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
        and not any(isinstance(v, bool) for v in value)
    ):
        return complex(_finite(value[0], field), _finite(value[1], field))
    raise InputError(
        f"field {field!r}: expected a number or a two-element [re, im] array"
    )


def _coefficient_vector(value, dim: int, field: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list):
        raise InputError(f"field {field!r}: expected an array of numbers")
    if len(value) != dim:
        raise InputError(
            f"field {field!r}: expected {dim} entries, got {len(value)}"
        )
    return np.array(
        [_complex_scalar(v, f"{field}[{i}]") for i, v in enumerate(value)],
        dtype=complex,
    )


def _matrix_from_nested(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise InputError(f"field {field!r}: expected a nested array")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InputError(f"field {field!r}[{i}]: expected an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"field {field!r}[{i}]: ragged row")
        rows.append(
            [
                _complex_scalar(v, f"{field}[{i}][{j}]")
                for j, v in enumerate(row)
            ]
        )
    return np.array(rows, dtype=complex)


def parse_algebra(value) -> tuple:
    """The algebra an ``algebra`` field names or describes, and None for
    a named algebra or a kept custom basis, else the real matrix whose
    row i holds the coefficients of the payload's i-th matrix in the
    re-based ``spec.basis``."""
    if isinstance(value, str):
        name = value.strip().lower()
        if name == "so3":
            return make_so(3), None
        if name == "so5":
            return make_so(5), None
        if name == "su2":
            return make_su(2), None
        if name == "su2_trace":
            return make_su(2, inner="trace"), None
        if name.startswith("abelian"):
            tail = name[len("abelian") :]
            if tail.isdecimal():
                # count the digits first: int() refuses very long strings
                digits = len(tail.lstrip("0"))
                if digits > 2 or not 1 <= int(tail) <= _MAX_ABELIAN_DIM:
                    raise InputError(
                        f"field 'algebra': abelian<d> needs 1 <= d <= "
                        f"{_MAX_ABELIAN_DIM}, got {value!r}"
                    )
                return make_abelian(int(tail)), None
        raise InputError(
            f"field 'algebra': unknown name {value!r}; use so3, so5, su2, "
            f"su2_trace, abelian<d>, or a custom object"
        )
    if isinstance(value, dict):
        if "matrices" not in value:
            raise InputError("field 'algebra': custom object needs 'matrices'")
        mats = value["matrices"]
        if not isinstance(mats, list) or not mats:
            raise InputError(
                "field 'algebra.matrices': expected a non-empty array"
            )
        stacked = [
            _matrix_from_nested(m, f"algebra.matrices[{i}]")
            for i, m in enumerate(mats)
        ]
        shapes = {m.shape for m in stacked}
        if len(shapes) != 1 or stacked[0].shape[0] != stacked[0].shape[1]:
            raise InputError(
                "field 'algebra.matrices': all matrices must be square "
                "and of one size"
            )
        stacked = np.array(stacked)
        name = value.get("name", "custom")
        inner = value.get("inner", "killing")
        if not isinstance(name, str) or not isinstance(inner, str):
            raise InputError(
                "field 'algebra': 'name' and 'inner' must be strings"
            )
        try:
            spec = algebra_from_basis(name, stacked, inner=inner)
        except ValueError as exc:
            raise InputError(f"field 'algebra': {exc}") from exc
        kept = np.array_equal(spec.basis, stacked)
        return spec, None if kept else coeffs_of(spec, stacked).real
    raise InputError("field 'algebra': expected a name or a custom object")


def _parse_real_key(key: str) -> tuple:
    digits = [c for c in key if not c.isspace() and c != ","]
    # ASCII digits only: str.isdigit also admits '²', which int()
    # rejects, and int() reads any Unicode decimal digit
    if (
        len(digits) != 2
        or not all(c in "1234567" for c in digits)
        or digits[0] >= digits[1]
    ):
        raise InputError(
            f"field 'components': key {key!r} must name two ascending "
            f"coframe indices between 1 and 7, like '12' or '37'"
        )
    return (int(digits[0]), int(digits[1]))


def _parse_complex_key(key: str) -> tuple:
    parts = [p.strip() for p in key.split(",")]
    try:
        symbols = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(
            f"field 'components': key {key!r} must hold comma-separated "
            f"integer symbols, like '1,-2'"
        ) from exc
    if len(symbols) != 2 or len(set(symbols)) != 2:
        raise InputError(
            f"field 'components': key {key!r} must name two distinct symbols"
        )
    for s in symbols:
        if s not in _SYMBOL_RANK:
            raise InputError(
                f"field 'components': symbol {s} in key {key!r} is outside "
                f"-3..3"
            )
    return symbols


def parse_gform(payload: dict) -> GValuedForm:
    """Algebra-valued 2-form from the documented JSON schema."""
    for field in ("algebra", "basis", "components"):
        if field not in payload:
            raise InputError(f"missing field {field!r}")
    algebra, change = parse_algebra(payload["algebra"])
    basis = payload["basis"]
    components = payload["components"]
    if not isinstance(components, dict) or not components:
        raise InputError("field 'components': expected a non-empty object")

    def vector(key, value) -> np.ndarray:
        # the payload's coefficients, mapped into a re-based algebra basis
        vec = _coefficient_vector(value, algebra.dim, f"components.{key}")
        return vec if change is None else vec @ change

    if basis == "w":
        rows = np.zeros((8, algebra.dim))
        for key, value in components.items():
            if (
                not isinstance(key, str)
                or len(key) != 2
                or key[0] != "w"
                or key[1] not in "12345678"
            ):
                raise InputError(
                    f"field 'components': key {key!r} must be 'w1'..'w8'"
                )
            vec = vector(key, value)
            if np.max(np.abs(vec.imag)) > 0.0:
                raise InputError(
                    f"field 'components.{key}': coefficients on this basis "
                    f"must be real"
                )
            rows[int(key[1]) - 1] = vec.real
        return gform_from_w_coefficients(algebra, rows)

    if basis == "real":
        out = GValuedForm(algebra, 2)
        for key, value in components.items():
            indices = _parse_real_key(str(key))
            out.accumulate(indices, vector(key, value))
        return out

    if basis == "complex":
        table = {}
        for key, value in components.items():
            symbols = _parse_complex_key(str(key))
            vec = vector(key, value)
            # keys in any symbol order: the expansion applies the sign
            current = table.get(symbols)
            table[symbols] = vec if current is None else current + vec
        return gform_from_complex_components(algebra, table, 2)

    raise InputError(
        f"field 'basis': expected 'w', 'real', or 'complex', not {basis!r}"
    )


def parse_transverse_ricci(payload: dict) -> TransverseRicci:
    if "ricci" not in payload:
        return TransverseRicci.einstein(8.0)
    mat = _matrix_from_nested(payload["ricci"], "ricci")
    if mat.shape != (3, 3):
        raise InputError("field 'ricci': expected a 3x3 nested array")
    try:
        return TransverseRicci(matrix=mat)
    except ValueError as exc:
        raise InputError(f"field 'ricci': {exc}") from exc


def parse_ricci7(payload: dict) -> RicciTensor7:
    if "ricci7" not in payload:
        return RicciTensor7.einstein(6.0)
    mat = _matrix_from_nested(payload["ricci7"], "ricci7")
    if mat.shape != (7, 7):
        raise InputError("field 'ricci7': expected a 7x7 nested array")
    if np.max(np.abs(mat.imag)) > 0.0:
        raise InputError("field 'ricci7': entries must be real")
    try:
        return RicciTensor7(matrix=mat.real)
    except ValueError as exc:
        raise InputError(f"field 'ricci7': {exc}") from exc


# ---------------------------------------------------------------------------
# Report encoding
# ---------------------------------------------------------------------------


def to_jsonable(value):
    """Recursive conversion to JSON-ready types.

    Complex numbers become two-element [re, im] arrays; arrays become
    nested lists; dictionary keys become strings.
    """
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not allowed")
        return repr(value)
    return str(value)


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(path, value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            path = f"{prefix}.{i}" if prefix else str(i)
            _flatten(path, item, rows)
    else:
        rows.append((prefix, _csv_cell(value)))


def encode_report(report: dict, format: str) -> str:
    """Deterministic serialization: sorted keys, fixed layout.

    Raises ``ValueError`` when the report holds a non-finite number, which
    standard JSON cannot carry.
    """
    data = to_jsonable(report)
    if format == "json":
        return json.dumps(data, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    rows: list = []
    _flatten("", data, rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("label", "value"))
    writer.writerows(rows)
    return buffer.getvalue()


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_calibrate(cfg: JobConfig, model) -> tuple:
    report = {
        "label": model.label,
        "signature": model.signature(),
        "orientation_sign": model.orientation_sign,
        "contact_coefficient": model.deta_coefficient,
        "endomorphism_sign": model.phi_sign,
        "vertical_index": REEB_INDEX,
        "constants": calibration_constants(model),
    }
    return report, True


def _reads_form(body):
    """Handler that loads ``--input`` and parses its 2-form first.

    ``body`` receives ``(cfg, model, payload, F)``.
    """

    def handler(cfg: JobConfig, model) -> tuple:
        payload = load_payload(cfg.input_path)
        return body(cfg, model, payload, parse_gform(payload))

    return handler


@_reads_form
def _cmd_decompose(cfg: JobConfig, model, payload, F) -> tuple:
    arr = F.to_matrix()
    parts = project_vectors(arr, model)
    inner_scale = F.algebra.inner_scale

    def block_norm_sq(block: np.ndarray) -> float:
        return inner_scale * float(np.vdot(block, block).real)

    total_sq = block_norm_sq(arr)
    part_report = {}
    reassembled = np.zeros_like(arr)
    for label in sorted(parts):
        block = parts[label]
        reassembled = reassembled + block
        norm_sq = block_norm_sq(block)
        part_report[label] = {
            "norm": float(np.sqrt(max(norm_sq, 0.0))),
            "fraction": float(norm_sq / total_sq) if total_sq > 0.0 else 0.0,
        }
    residual = float(np.max(np.abs(reassembled - arr)))
    dominant = max(
        sorted(part_report), key=lambda k: part_report[k]["fraction"]
    )
    report = {
        "algebra": F.algebra.name,
        "total_norm": float(np.sqrt(max(total_sq, 0.0))),
        "parts": part_report,
        "dominant": dominant if total_sq > 0.0 else "none",
        "reassembly_residual": residual,
    }
    return report, True


@_reads_form
def _cmd_classify(cfg: JobConfig, model, payload, F) -> tuple:
    return instanton_classify(F, model, tol=cfg.tolerance), True


@_reads_form
def _cmd_spectrum(cfg: JobConfig, model, payload, F) -> tuple:
    ricci = parse_transverse_ricci(payload)
    f_endo = build_F_operator(
        F, model, allow_non_instanton=True, tol=cfg.tolerance
    )
    spectra = combined_spectra(f_endo, ricci)
    report = {
        "spectra": spectra,
        "verdicts": {
            "curvature_positive": spectra["curvature"]["positive"],
            "curvature_nonnegative": spectra["curvature"]["nonnegative"],
            "ricci_positive": spectra["ricci"]["positive"],
            "combined_positive": spectra["combined"]["positive"],
        },
    }
    return report, True


@_reads_form
def _cmd_vanishing(cfg: JobConfig, model, payload, F) -> tuple:
    ricci = parse_transverse_ricci(payload)
    return vanishing_report(F, ricci, model, tol=cfg.tolerance), True


@_reads_form
def _cmd_stability(cfg: JobConfig, model, payload, F) -> tuple:
    ricci = parse_ricci7(payload)
    report = stability_report(
        F, ricci, model, classification_tol=cfg.tolerance
    )
    return report, True


def _cmd_symbols(cfg: JobConfig, model) -> tuple:
    q = build_quotient_spaces(model)
    full = batch_exactness(
        q, FULL_C, seed=cfg.seed, samples=cfg.samples
    )
    basic = batch_exactness(
        q, BASIC_B, seed=cfg.seed, samples=cfg.samples
    )
    ok = bool(full["all_exact"]) and bool(basic["all_exact"])
    report = {"full": full, "basic": basic, "all_passed": ok}
    return report, ok


def _cmd_stiefel(cfg: JobConfig, model) -> tuple:
    report = stiefel_report(
        model=model, seed=cfg.seed, samples=cfg.samples
    )
    verdicts = report["verdicts"]
    ok = (
        verdicts["sdci"] == "PASS"
        and bool(verdicts["f_indefinite"])
        and verdicts["vanishing"] == "VANISHES"
    )
    return report, ok


def _cmd_selftest(cfg: JobConfig, model) -> tuple:
    report = run_selftest(
        model, seed=cfg.seed, samples=cfg.samples, tol=cfg.tolerance
    )
    return report, bool(report["all_passed"])


# command name -> (handler, help line), in the order of ``--help``
_COMMANDS = {
    "calibrate": (_cmd_calibrate, "print the calibrated model constants"),
    "decompose": (
        _cmd_decompose, "split a 2-form into the four eigenvalue blocks"
    ),
    "classify": (_cmd_classify, "type label of an algebra-valued 2-form"),
    "spectrum": (
        _cmd_spectrum, "spectra of the curvature and Ricci endomorphisms"
    ),
    "vanishing": (
        _cmd_vanishing, "positivity verdict for the combined endomorphism"
    ),
    "stability": (
        _cmd_stability, "second-variation verdict for the curvature energy"
    ),
    "symbols": (_cmd_symbols, "exactness survey of both symbol complexes"),
    "stiefel": (_cmd_stiefel, "full pipeline on the homogeneous example"),
    "selftest": (_cmd_selftest, "every dual-route oracle suite in one run"),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(cfg: JobConfig) -> int:
    """Execute one job and write its report.

    Floating-point overflow or an invalid value while the report is
    computed or encoded means the input is out of range: it ends in the
    one-line input error instead of numpy warnings ahead of one.
    """
    model = calibrate_model()
    handler = _COMMANDS[cfg.command][0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            report, ok = handler(cfg, model)
            text = encode_report(report, cfg.format)
    except InputError:
        raise
    except (ValueError, FloatingPointError) as exc:
        raise InputError(str(exc)) from exc
    _write_output(text, cfg.output_path)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

