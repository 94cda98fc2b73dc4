"""Command line front end: load data, run analyses, emit reports.

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

with components keyed per basis: ``"w"`` uses ``"w1"`` .. ``"w8"`` with
real coefficient vectors; ``"real"`` uses ascending coframe index pairs
such as ``"12"`` or ``"37"``; ``"complex"`` uses comma-separated symbol
pairs such as ``"1,-2"`` (positive j for the j-th holomorphic
direction, negative for its conjugate, 0 for the vertical direction).
Each value is a coefficient vector of the algebra dimension; a bare
number is accepted for 1-dimensional algebras.  Optional fields:
``"ricci"`` (3x3 nested arrays, Hermitian) feeds the transverse Ricci
endomorphism, ``"ricci7"`` (7x7 nested arrays, symmetric) feeds the
second-variation operator.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..flat_model import (
    _WEDGE,
    PAIRS,
    REEB_INDEX,
    calibrate_model,
    calibration_constants,
    nearest_mixing_eigenvalues,
    standard_two_form_families,
)
from ..form_decomposition import (
    _SYMBOL_RANK,
    _TO_COMPLEX,
    _TO_REAL,
    _change_basis,
    eigenspace_projectors,
    project_vectors,
    t_eta_matrix,
)
from ..lie_algebra import (
    BRACKET_NORM_BOUND,
    LieAlgebraSpec,
    algebra_from_basis,
    bracket_norm_check,
    bracket_vec,
    bracket_via_matrices,
    coeffs_of,
    inner_vec,
    make_abelian,
    make_so,
    make_su,
    matrix_of,
    subalgebra_spec,
)
from ..gauge_fields import (
    GValuedForm,
    f_components_from_gform,
    g_norm,
    g_wedge_bracket,
    gform_from_complex_components,
    gform_complex_components,
    gform_from_w_coefficients,
    instanton_classify,
    two_zero_from_v_coefficients,
    w_coefficients_from_gform,
)
from ..weitzenbock_engine import (
    TransverseRicci,
    TwoZeroEndo,
    V_QUAD_TO_OPERATOR_FACTOR,
    apply_F_xi_path,
    build_F_operator,
    build_F_operator_from_components,
    build_R_operator,
    estimate_bound_check,
    operator_spectrum,
    quad_form_F_complex,
    v_basis_quad_form,
    vanishing_report,
)
from ..ym_stability import (
    OneFormSection,
    RicciTensor7,
    algebraic_second_variation,
    curvature_grid_norms,
    curvature_quad_paths,
    stability_report,
)
from ..deformation_symbols import (
    BASIC_B,
    FULL_C,
    batch_exactness,
    build_quotient_spaces,
)
from ..stiefel_example import (
    build_stiefel,
    indefiniteness_search,
    sdci_verify,
    stiefel_report,
    structure_check,
)

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

_COMMANDS = (
    "calibrate",
    "decompose",
    "classify",
    "spectrum",
    "vanishing",
    "stability",
    "symbols",
    "stiefel",
    "selftest",
)

_DEFAULT_SEED = 0
_DEFAULT_SAMPLES = 10000
_DEFAULT_TOL = 1e-9
_DEFAULT_FORMAT = "json"


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
        if self.tolerance <= 0.0:
            raise InputError("tolerance must be positive")
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


def build_parser() -> argparse.ArgumentParser:
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
    helps = {
        "calibrate": "print the calibrated model constants",
        "decompose": "split a 2-form into the four eigenvalue blocks",
        "classify": "type label of an algebra-valued 2-form",
        "spectrum": "spectra of the curvature and Ricci endomorphisms",
        "vanishing": "positivity verdict for the combined endomorphism",
        "stability": "second-variation verdict for the curvature energy",
        "symbols": "exactness survey of both symbol complexes",
        "stiefel": "full pipeline on the homogeneous example",
        "selftest": "every dual-route oracle suite in one run",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
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


def parse_algebra(value) -> LieAlgebraSpec:
    if isinstance(value, str):
        name = value.strip().lower()
        if name == "so3":
            return make_so(3)
        if name == "so5":
            return make_so(5)
        if name == "su2":
            return make_su(2)
        if name == "su2_trace":
            return make_su(2, inner="trace")
        if name.startswith("abelian"):
            tail = name[len("abelian") :]
            if tail.isdigit() and int(tail) >= 1:
                return make_abelian(int(tail))
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
        name = value.get("name", "custom")
        inner = value.get("inner", "killing")
        if not isinstance(name, str) or not isinstance(inner, str):
            raise InputError(
                "field 'algebra': 'name' and 'inner' must be strings"
            )
        try:
            return algebra_from_basis(name, np.array(stacked), inner=inner)
        except ValueError as exc:
            raise InputError(f"field 'algebra': {exc}") from exc
    raise InputError("field 'algebra': expected a name or a custom object")


def _parse_real_key(key: str) -> tuple:
    digits = [c for c in key if not c.isspace() and c != ","]
    if (
        len(digits) != 2
        or not all(c.isdigit() for c in digits)
        or not all(1 <= int(c) <= 7 for c in digits)
        or int(digits[0]) >= int(digits[1])
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
    algebra = parse_algebra(payload["algebra"])
    basis = payload["basis"]
    components = payload["components"]
    if not isinstance(components, dict) or not components:
        raise InputError("field 'components': expected a non-empty object")

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
            vec = _coefficient_vector(
                value, algebra.dim, f"components.{key}"
            )
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
            vec = _coefficient_vector(
                value, algebra.dim, f"components.{key}"
            )
            out.accumulate(indices, vec)
        return out

    if basis == "complex":
        table = {}
        for key, value in components.items():
            symbols = _parse_complex_key(str(key))
            vec = _coefficient_vector(
                value, algebra.dim, f"components.{key}"
            )
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


def _cmd_decompose(cfg: JobConfig, model) -> tuple:
    payload = load_payload(cfg.input_path)
    F = parse_gform(payload)
    arr = F.to_matrix()
    parts = project_vectors(arr, model)
    gram = F.algebra.gram

    def block_norm_sq(block: np.ndarray) -> float:
        return float(
            np.real(np.einsum("kd,de,ke->", block, gram, block.conj()))
        )

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


def _cmd_classify(cfg: JobConfig, model) -> tuple:
    payload = load_payload(cfg.input_path)
    F = parse_gform(payload)
    verdict = instanton_classify(F, model, tol=cfg.tolerance)
    return verdict, True


def _cmd_spectrum(cfg: JobConfig, model) -> tuple:
    payload = load_payload(cfg.input_path)
    F = parse_gform(payload)
    ricci = parse_transverse_ricci(payload)
    f_endo = build_F_operator(
        F, model, allow_non_instanton=True, tol=cfg.tolerance
    )
    r_endo = build_R_operator(ricci, F.algebra)
    combined = TwoZeroEndo(
        algebra=F.algebra,
        matrix=f_endo.matrix + r_endo.matrix,
        label="combined",
    )
    spectra = {
        "curvature": operator_spectrum(f_endo),
        "ricci": operator_spectrum(r_endo),
        "combined": operator_spectrum(combined),
    }
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


def _cmd_vanishing(cfg: JobConfig, model) -> tuple:
    payload = load_payload(cfg.input_path)
    F = parse_gform(payload)
    ricci = parse_transverse_ricci(payload)
    report = vanishing_report(F, ricci, model, tol=cfg.tolerance)
    return report, True


def _cmd_stability(cfg: JobConfig, model) -> tuple:
    payload = load_payload(cfg.input_path)
    F = parse_gform(payload)
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


_HANDLERS = {
    "calibrate": _cmd_calibrate,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "vanishing": _cmd_vanishing,
    "stability": _cmd_stability,
    "symbols": _cmd_symbols,
    "stiefel": _cmd_stiefel,
    "selftest": _cmd_selftest,
}


# ---------------------------------------------------------------------------
# Self test: every dual-route oracle suite
# ---------------------------------------------------------------------------


def _suite_calibration(model, seed, samples, tol) -> dict:
    constants = calibration_constants(model)
    expected = {
        "transverse_metric_ratio": 0.5,
        "volume_ratio": -0.75,
        "transverse_star_omega_scale": -1.0,
    }
    worst = max(
        abs(float(constants[key]) - val) for key, val in expected.items()
    )
    passed = (
        worst <= 1e-12
        and model.orientation_sign == 1
        and model.deta_coefficient == -1.0
        and model.phi_sign == -1
    )
    return {"passed": bool(passed), "worst_residual": worst}


def _suite_eigenvalue_blocks(model, seed, samples, tol) -> dict:
    matrix = t_eta_matrix(model)
    evals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    nearest, distance = nearest_mixing_eigenvalues(evals)
    labels = {"+1": 1.0, "-1": -1.0, "-2": -2.0, "0": 0.0}
    targets, _ = nearest_mixing_eigenvalues(list(labels.values()))
    counts = {
        label: int(np.count_nonzero(nearest == target))
        for label, target in zip(labels, targets)
    }
    worst = float(distance.max())
    families = standard_two_form_families()
    block_worst = 0.0
    for form in families["w"]:
        vec = form.to_vector()
        block_worst = max(
            block_worst, float(np.max(np.abs(matrix @ vec - vec)))
        )
    for form in families["v"]:
        vec = form.to_vector()
        block_worst = max(
            block_worst, float(np.max(np.abs(matrix @ vec + vec)))
        )
    omega_vec = model.omega.to_vector()
    block_worst = max(
        block_worst,
        float(np.max(np.abs(matrix @ omega_vec + 2.0 * omega_vec))),
    )
    passed = (
        counts == {"+1": 8, "-1": 6, "-2": 1, "0": 6}
        and worst <= 1e-10
        and block_worst <= 1e-10
    )
    return {
        "passed": bool(passed),
        "eigenvalue_counts": counts,
        "worst_eigenvalue_residual": worst,
        "worst_block_residual": block_worst,
    }


def _suite_projections(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed)
    count = min(samples, 10000)
    vectors = rng.standard_normal((21, count))
    projectors = eigenspace_projectors(model)
    labels = sorted(projectors)
    worst = 0.0
    recomposed = np.zeros_like(vectors)
    for a in labels:
        pa = projectors[a]
        worst = max(worst, float(np.max(np.abs(pa @ pa - pa))))
        recomposed = recomposed + pa @ vectors
        for b in labels:
            if a < b:
                worst = max(
                    worst,
                    float(np.max(np.abs(projectors[a] @ projectors[b]))),
                )
    worst = max(worst, float(np.max(np.abs(recomposed - vectors))))
    return {"passed": bool(worst <= 1e-12), "worst_residual": worst,
            "samples": count}


def _worst(residuals) -> float:
    """Largest absolute entry, 0.0 for an empty stack."""
    return float(np.max(np.abs(residuals), initial=0.0))


def _suite_bidegree_roundtrip(model, seed, samples, tol) -> dict:
    """Real -> complex -> real round trip of random 2-forms.

    The two routes are the complex->real matrix, built from wedges of the
    complex coframe, and its exact inverse ``diag(2^-(p+q)) C^H``; both
    act on the stack of samples at once.
    """
    rng = np.random.default_rng(seed + 1)
    vectors = rng.standard_normal((min(samples, 200), 21)).T
    table = _change_basis(_TO_COMPLEX[2], vectors)
    back = _change_basis(_TO_REAL[2], table)
    worst = _worst(back - vectors)
    return {"passed": bool(worst <= 1e-12), "worst_residual": worst}


def _suite_lie_dual_path(model, seed, samples, tol) -> dict:
    """Structure-constant brackets against matrix commutators.

    Per algebra the samples are drawn as one ``(count, 3, dim)`` stack;
    ``bracket_vec`` and ``bracket_via_matrices`` bracket it as a whole,
    and invariance of the inner product is checked on the same stack.
    """
    rng = np.random.default_rng(seed + 2)
    specs = [make_so(3), make_su(2), make_su(2, inner="trace"), make_so(5)]
    count = min(samples, 100)
    worst_bracket = 0.0
    worst_invariance = 0.0
    for spec in specs:
        u, v, w = np.moveaxis(rng.standard_normal((count, 3, spec.dim)), 1, 0)
        a = bracket_vec(spec, u, v)
        b = bracket_via_matrices(spec, u, v)
        worst_bracket = max(worst_bracket, _worst(a - b))
        lhs = inner_vec(spec, a, w)
        rhs = -inner_vec(spec, v, bracket_vec(spec, u, w))
        worst_invariance = max(worst_invariance, _worst(lhs - rhs))
    fiber = subalgebra_spec(make_so(5), (8, 9, 10))
    gram_exact = bool(np.array_equal(fiber.gram, 6.0 * np.eye(3)))
    passed = (
        worst_bracket <= 1e-10
        and worst_invariance <= 1e-8
        and gram_exact
    )
    return {
        "passed": bool(passed),
        "worst_bracket_residual": worst_bracket,
        "worst_invariance_residual": worst_invariance,
        "fiber_gram_exact": gram_exact,
    }


def _suite_gauge_roundtrips(model, seed, samples, tol) -> dict:
    """Form conversions and the graded bracket on a stack of samples.

    Round trips: w coefficients -> form -> w coefficients, and form ->
    complex components -> form.  The bracket of two 1-forms is taken by
    ``g_wedge_bracket`` (structure constants) and, as the second route,
    through the matrix entries of both forms: the commutators of the
    entry matrices are added into the monomials through the wedge table
    and pulled back to coefficients once per monomial.  The oracle loop
    brackets one pair of forms at a time through
    ``g_wedge_bracket_entry_path``.
    """
    rng = np.random.default_rng(seed + 3)
    algebra = make_so(3)
    count = min(samples, 100)
    # per sample: 8 w rows, then the e^1..e^7 rows of phi and psi in turn
    draws = rng.standard_normal((count, 22, algebra.dim))
    rows = draws[:, :8]
    F = gform_from_w_coefficients(algebra, rows)
    worst_w = _worst(w_coefficients_from_gform(F) - rows)

    table = gform_complex_components(F, model)
    rebuilt = gform_from_complex_components(algebra, table, 2)
    worst_complex = _worst(F.matrix - rebuilt.matrix)

    # (phi or psi, e^i, sample, dim)
    one_forms = draws[:, 8:].reshape(count, 7, 2, algebra.dim).transpose(
        2, 1, 0, 3
    )
    phi = GValuedForm.from_matrix(algebra, 1, one_forms[0])
    psi = GValuedForm.from_matrix(algebra, 1, one_forms[1])
    lhs = g_wedge_bracket(phi, psi)
    # entry route: e^I ^ e^J carries psi_J phi_I - phi_I psi_J as matrices
    target, left, right, sign = _WEDGE[1, 1]
    first = matrix_of(algebra, psi.matrix)[right]
    second = matrix_of(algebra, phi.matrix)[left]
    entries = np.zeros((len(lhs.matrix),) + first.shape[1:], dtype=complex)
    np.add.at(
        entries, target,
        sign[:, None, None, None] * (first @ second - second @ first),
    )
    worst_wedge = _worst(lhs.matrix - coeffs_of(algebra, entries))
    passed = max(worst_w, worst_complex, worst_wedge) <= 1e-10
    return {
        "passed": bool(passed),
        "worst_w_roundtrip": worst_w,
        "worst_complex_roundtrip": worst_complex,
        "worst_wedge_dual_path": worst_wedge,
    }


def _suite_curvature_operator(model, seed, samples, tol) -> dict:
    """The curvature endomorphism by its matrix and by its entries.

    Per algebra one ``(count, 14, dim)`` stack of w and v coefficients.
    The operator matrices (``build_F_operator_from_components``) act on
    the sections against the componentwise ``apply_F_xi_path``; the
    quadratic form is taken three ways: bracket route
    (``quad_form_F_complex``), operator route (``quad_bilinear``) and on
    the coefficient families (``v_basis_quad_form``).
    """
    rng = np.random.default_rng(seed + 4)
    count = min(samples, 150)
    worst_apply = 0.0
    worst_quad = 0.0
    for algebra in (make_su(2), make_so(3)):
        draws = rng.standard_normal((count, 14, algebra.dim))
        a_rows, b_rows = draws[:, :8], draws[:, 8:]
        F = gform_from_w_coefficients(algebra, a_rows)
        fc = f_components_from_gform(F, model)
        endo = build_F_operator_from_components(fc)
        section = two_zero_from_v_coefficients(algebra, b_rows)

        via_matrix = endo.apply(section)
        via_entries = apply_F_xi_path(fc, section)
        worst_apply = max(
            worst_apply, _worst(via_matrix.stacked() - via_entries.stacked())
        )

        q1 = np.real(quad_form_F_complex(fc, section))
        q2 = np.real(endo.quad_bilinear(section))
        q3 = (
            v_basis_quad_form(algebra, b_rows, a_rows)
            / V_QUAD_TO_OPERATOR_FACTOR
        )
        worst_quad = max(
            worst_quad, _worst(q1 - q2), _worst(q1 - q3), _worst(q2 - q3)
        )
    passed = max(worst_apply, worst_quad) <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "worst_apply_dual_path": worst_apply,
        "worst_quad_three_way": worst_quad,
    }


def _suite_ricci_operator(model, seed, samples, tol) -> dict:
    """The Ricci endomorphism against its diagonal formula.

    Uniform and normal draws alternate, so they are drawn sample by
    sample; the operators of all diagonal tensors are built as one stack
    and their quadratic forms compared with
    ``sum (r_mu + r_nu) ||phi_{mu nu}||^2``.
    """
    rng = np.random.default_rng(seed + 5)
    algebra = make_so(3)
    endo = build_R_operator(TransverseRicci.einstein(8.0), algebra)
    identity_residual = float(
        np.max(np.abs(endo.matrix - 16.0 * np.eye(3 * algebra.dim)))
    )
    values, rows = [], []
    for _ in range(min(samples, 100)):
        values.append(rng.uniform(0.5, 4.0, size=3))
        rows.append(rng.standard_normal((6, algebra.dim)))
    values = np.array(values)
    ricci = TransverseRicci.from_diagonal(values)
    section = two_zero_from_v_coefficients(algebra, np.array(rows))
    quad = np.real(build_R_operator(ricci, algebra).quad(section))
    expected = 0.0
    for mu, nu in PAIRS:
        comp = section.component(mu, nu)
        norm_sq = np.real(inner_vec(algebra, comp, comp))
        expected = expected + (values[:, mu - 1] + values[:, nu - 1]) * norm_sq
    worst_diag = _worst(quad - expected)
    passed = identity_residual == 0.0 and worst_diag <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "einstein_identity_residual": identity_residual,
        "worst_diagonal_identity": worst_diag,
    }


def _suite_selfadjointness(model, seed, samples, tol) -> dict:
    """<M phi, psi> against <phi, M psi> for the curvature and Ricci terms.

    Draws are mixed (normal and uniform), so they are taken sample by
    sample; both operators and both pairings are evaluated on the stacks.
    """
    rng = np.random.default_rng(seed + 6)
    algebra = make_su(2)
    a_rows, values, phi_rows, psi_rows = [], [], [], []
    for _ in range(min(samples, 100)):
        a_rows.append(rng.standard_normal((8, algebra.dim)))
        values.append(rng.uniform(0.5, 4.0, size=3))
        phi_rows.append(rng.standard_normal((6, algebra.dim)))
        psi_rows.append(rng.standard_normal((6, algebra.dim)))
    F = gform_from_w_coefficients(algebra, np.array(a_rows))
    f_endo = build_F_operator_from_components(
        f_components_from_gform(F, model)
    )
    r_endo = build_R_operator(
        TransverseRicci.from_diagonal(np.array(values)), algebra
    )
    phi = two_zero_from_v_coefficients(algebra, np.array(phi_rows))
    psi = two_zero_from_v_coefficients(algebra, np.array(psi_rows))
    worst = max(
        _worst(endo.adjoint_residual(phi, psi)) for endo in (f_endo, r_endo)
    )
    return {"passed": bool(worst <= 1e-10 * 100), "worst_residual": worst}


def _suite_estimate_chain(model, seed, samples, tol) -> dict:
    """The norm estimate chain on stacks, then the commutator bound.

    ``estimate_bound_check`` evaluates the chain on each algebra's stack
    of curvatures and sections; ``bracket_norm_check`` samples the
    commutator ratio against sqrt(2).
    """
    rng = np.random.default_rng(seed + 7)
    failures = 0
    max_ratio = 0.0
    for algebra in (make_su(2), make_so(3), make_so(5)):
        draws = rng.standard_normal((min(samples, 100), 14, algebra.dim))
        F = gform_from_w_coefficients(algebra, draws[:, :8])
        fc = f_components_from_gform(F, model)
        section = two_zero_from_v_coefficients(algebra, draws[:, 8:])
        check = estimate_bound_check(fc, section, tol=tol)
        holds = check["bracket_bound_holds"] & check["product_bound_holds"]
        failures += int(np.count_nonzero(~holds))
        denominator = (
            check["norms"]["component_frobenius"]
            * check["norms"]["section_sq"]
        )
        positive = denominator > 0.0
        max_ratio = max(
            max_ratio,
            _worst(check["quad_form"][positive] / denominator[positive]),
        )
    bracket = bracket_norm_check(
        make_su(2, inner="trace"), samples=min(samples, 500), seed=seed
    )
    passed = (
        failures == 0
        and bracket["passed"]
        and abs(bracket["max_ratio"] - BRACKET_NORM_BOUND) <= 1e-9
    )
    return {
        "passed": bool(passed),
        "bound_failures": failures,
        "max_quad_ratio": max_ratio,
        "bracket_max_ratio": bracket["max_ratio"],
        "bracket_bound": BRACKET_NORM_BOUND,
    }


def _suite_second_variation(model, seed, samples, tol) -> dict:
    """Curvature coupling on 1-forms and the second variation, stacked.

    ``curvature_quad_paths`` pairs the image with the section (direct
    route) and the curvature with brackets of the section (flipped
    route); the grid norms must reproduce sqrt(2) times the form norm;
    below the Ricci threshold every second variation must be positive.
    """
    rng = np.random.default_rng(seed + 8)
    algebra = make_so(3)
    trials = min(samples, 50)
    scale = 6.0
    threshold = scale / (2.0 * np.sqrt(2.0))
    # per sample: 8 w rows, then the 7 rows of the 1-form section
    draws = rng.standard_normal((trials, 15, algebra.dim))
    F = gform_from_w_coefficients(algebra, draws[:, :8])
    section = OneFormSection(algebra, draws[:, 8:].swapaxes(0, 1))
    worst_pair = _worst(curvature_quad_paths(F, section)["agreement"])
    grid = np.linalg.norm(curvature_grid_norms(F), axis=(-2, -1))
    norm = g_norm(F)
    worst_grid = _worst(grid - np.sqrt(2.0) * norm)
    nonzero = norm > 0.0
    shrunk = F * ((0.9 * threshold) / np.where(nonzero, norm, 1.0))[:, None]
    variation = algebraic_second_variation(
        shrunk, RicciTensor7.einstein(scale)
    )
    positive_failures = int(
        np.count_nonzero(nonzero & (variation["min_eigenvalue"] <= 0.0))
    )
    passed = (
        worst_pair <= 1e-10
        and worst_grid <= 1e-9
        and positive_failures == 0
    )
    return {
        "passed": bool(passed),
        "worst_quad_pair_residual": worst_pair,
        "worst_grid_norm_identity": worst_grid,
        "positivity_failures": positive_failures,
        "trials": trials,
    }


def _suite_symbol_exactness(model, seed, samples, tol) -> dict:
    q = build_quotient_spaces(model)
    full = batch_exactness(q, FULL_C, seed=seed, samples=min(samples, 40))
    basic = batch_exactness(q, BASIC_B, seed=seed, samples=min(samples, 40))
    passed = bool(full["all_exact"]) and bool(basic["all_exact"])
    return {
        "passed": passed,
        "full_rank_patterns": full["rank_patterns"],
        "basic_rank_patterns": basic["rank_patterns"],
        "vertical_degenerate": basic["vertical_degenerate"],
    }


def _suite_stiefel_pipeline(model, seed, samples, tol) -> dict:
    spec = build_stiefel()
    structure = structure_check(spec)
    sdci = sdci_verify(spec, model)
    witnesses = indefiniteness_search(
        spec, model, seed=seed, samples=min(samples, 50)
    )
    analytic = witnesses["analytic"]
    values_exact = (
        analytic["plus"]["quad"] == 4.0
        and analytic["minus"]["quad"] == -4.0
        and analytic["plus"]["display"] == 6.0
        and analytic["minus"]["display"] == -6.0
    )
    passed = (
        structure["fiber_brackets_exact"]
        and structure["fiber_gram_exact"]
        and sdci["passed"]
        and witnesses["indefinite"]
        and values_exact
    )
    return {
        "passed": bool(passed),
        "sdci_residual": sdci["worst_residual"],
        "witness_values": {
            "plus": analytic["plus"]["quad"],
            "minus": analytic["minus"]["quad"],
        },
        "witness_values_exact": bool(values_exact),
    }


_SELFTEST_SUITES = (
    ("calibration", _suite_calibration),
    ("eigenvalue_blocks", _suite_eigenvalue_blocks),
    ("projections", _suite_projections),
    ("bidegree_roundtrip", _suite_bidegree_roundtrip),
    ("lie_dual_path", _suite_lie_dual_path),
    ("gauge_roundtrips", _suite_gauge_roundtrips),
    ("curvature_operator", _suite_curvature_operator),
    ("ricci_operator", _suite_ricci_operator),
    ("selfadjointness", _suite_selfadjointness),
    ("estimate_chain", _suite_estimate_chain),
    ("second_variation", _suite_second_variation),
    ("symbol_exactness", _suite_symbol_exactness),
    ("stiefel_pipeline", _suite_stiefel_pipeline),
)


def run_selftest(model, seed: int = 0, samples: int = 10000,
                 tol: float = 1e-9) -> dict:
    """Run every dual-route oracle suite and collect verdicts.

    Each sampling suite draws its samples as one stack (sample by sample
    only where uniform and normal draws interleave) and evaluates both
    routes of every check over the sample axis.  The sample-by-sample
    loops they replaced are the labelled oracles of
    ``tests/test_selftest_oracles.py``.  A sample count below one raises
    ``ValueError``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    suites = {}
    all_passed = True
    for name, func in _SELFTEST_SUITES:
        result = func(model, seed, samples, tol)
        suites[name] = result
        all_passed = all_passed and bool(result["passed"])
    return {
        "seed": int(seed),
        "samples": int(samples),
        "tolerance": float(tol),
        "suites": suites,
        "all_passed": bool(all_passed),
        "verdict": "PASS" if all_passed else "FAIL",
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
    handler = _HANDLERS[cfg.command]
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

