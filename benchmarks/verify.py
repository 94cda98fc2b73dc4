"""Judge every benchmark operation against the documented CLI contract.

An operation succeeds when it gives either

* exit 0 or 1 with a standard report (JSON that parses with ``NaN`` and
  ``Infinity`` rejected, or CSV whose cells hold no non-finite number), or
* exit 2 with one ``input error`` line and no traceback on stderr.

An exception escaping ``main``, any other exit code, malformed or
non-finite output, or an exit code that does not fit the report is a
failed operation.  On a successful report the verifier also checks the
report's own invariants and, where a reference report exists, its numeric
fields.  A violation of either is a wrong answer: it fails the operation
and marks the whole run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from inputs import ASD, LAMBDA, NONE, SD

LABELS = {SD, ASD, LAMBDA, NONE}
VANISHING_VERDICTS = {"VANISHES", "INCONCLUSIVE"}
STABILITY_VERDICTS = {"STABLE_SUFFICIENT", "INCONCLUSIVE"}
BLOCK_OF_TYPE = {SD: "8", ASD: "6", LAMBDA: "1"}
GATED_COMMANDS = {"symbols", "stiefel", "selftest"}

REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
DECOMPOSE_TOL = 1e-12


@dataclass
class CliOutcome:
    """What one in-process CLI job produced."""

    exit_code: int | None
    stdout: str
    stderr: str
    error: str | None = None   # exception that escaped ``main``


@dataclass
class Verdict:
    """``failure`` is ``None`` for a successful operation.  ``wrong`` marks
    a report that had the right form but the wrong content."""

    failure: str | None
    wrong: bool = False
    flat: dict | None = None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def flatten(value, prefix: str = "", out: dict | None = None) -> dict:
    """Dotted paths to leaf values, in the layout of the CSV reports."""
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            flatten(value[key], path, out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}.{i}" if prefix else str(i), out)
    elif isinstance(value, (bool, np.bool_)):
        out[prefix] = bool(value)
    elif isinstance(value, (int, float, np.integer, np.floating)):
        out[prefix] = float(value)
    elif isinstance(value, (complex, np.complexfloating)):
        out[f"{prefix}.re"] = float(value.real)
        out[f"{prefix}.im"] = float(value.imag)
    else:
        out[prefix] = value
    return out


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str, fmt: str) -> dict:
    """Flattened report; raises ``ValueError`` on malformed output."""
    if fmt == "json":
        return flatten(json.loads(text, parse_constant=_reject_constant))
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["label", "value"]:
        raise ValueError("CSV report lacks its label,value header")
    flat = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"CSV row {row!r} does not have two cells")
        flat[row[0]] = _csv_value(row[1])
    return flat


def non_finite_fields(flat: dict) -> list:
    return [
        key for key, value in flat.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]


def compare_reference(flat: dict, reference: dict) -> list:
    """Numeric fields that differ from the reference report."""
    bad = []
    for key, expected in reference.items():
        if isinstance(expected, bool) or not isinstance(expected, float):
            continue
        got = flat.get(key)
        if isinstance(got, bool) or not isinstance(got, float):
            bad.append(key)
            continue
        limit = REFERENCE_RTOL * max(abs(got), abs(expected)) + REFERENCE_ATOL
        if not abs(got - expected) <= limit:
            bad.append(key)
    return bad


def _text(value):
    """A label as text: CSV cells such as ``8`` read back as numbers."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return value


def _fraction_sum(flat: dict) -> float:
    return sum(
        value for key, value in flat.items()
        if key.startswith("parts.") and key.endswith(".fraction")
    )


def report_invariants(command: str, flat: dict, kind: str | None) -> list:
    """Violated invariants of one report; ``kind`` is the generated type."""
    bad = []

    def need(condition: bool, what: str):
        if not condition:
            bad.append(what)

    if command == "calibrate":
        need(flat.get("orientation_sign") in (1.0, -1.0), "orientation sign")
        need(flat.get("endomorphism_sign") in (1.0, -1.0), "phi sign")
        need(flat.get("vertical_index") == 7.0, "vertical index")
    elif command == "decompose":
        need(abs(_fraction_sum(flat) - 1.0) <= DECOMPOSE_TOL,
             "block fractions sum to 1")
        need(flat.get("reassembly_residual", 1.0) <= DECOMPOSE_TOL,
             "reassembly residual")
        block = BLOCK_OF_TYPE.get(kind)
        if block is not None:
            need(flat.get(f"parts.{block}.fraction", 0.0)
                 >= 1.0 - DECOMPOSE_TOL, f"form lies in block {block}")
            need(_text(flat.get("dominant")) == block, "dominant block")
    elif command == "classify":
        need(flat.get("label") in LABELS, "label in the known set")
        if kind is not None:
            need(flat.get("label") == kind, f"label {kind}")
    elif command == "spectrum":
        for part in ("curvature", "ricci", "combined"):
            low = flat.get(f"spectra.{part}.min")
            high = flat.get(f"spectra.{part}.max")
            need(isinstance(low, float) and isinstance(high, float)
                 and low <= high, f"{part} spectrum bounds")
        need(isinstance(flat.get("verdicts.combined_positive"), bool),
             "combined verdict")
    elif command == "vanishing":
        need(flat.get("verdict") in VANISHING_VERDICTS, "vanishing verdict")
    elif command == "stability":
        need(flat.get("verdict") in STABILITY_VERDICTS, "stability verdict")
        need(flat.get("classification") in LABELS, "classification label")
        if kind is not None:
            need(flat.get("classification") == kind, f"classification {kind}")
    elif command == "symbols":
        need(flat.get("all_passed") is True, "symbols all_passed")
    elif command == "stiefel":
        need(flat.get("verdicts.sdci") == "PASS", "stiefel sdci PASS")
        need(flat.get("verdicts.f_indefinite") is True, "indefinite")
        need(flat.get("verdicts.vanishing") == "VANISHES", "vanishing")
    elif command == "selftest":
        need(flat.get("all_passed") is True
             and flat.get("verdict") == "PASS", "selftest PASS")
    return bad


def check_cli(command: str, fmt: str, outcome: CliOutcome,
              kind: str | None = None, expect_success: bool = False,
              reference: dict | None = None) -> Verdict:
    """Judge one CLI job.

    ``expect_success`` marks a schema-valid input the command accepts, so
    anything but exit 0 fails; ``reference`` is the flattened report the
    same job gave at the reference commit.
    """
    if outcome.error is not None:
        return Verdict(f"exception escaped main: {outcome.error}")
    code = outcome.exit_code
    if code == 2:
        if expect_success:
            return Verdict("exit 2 on an input the command accepts")
        lines = [ln for ln in outcome.stderr.splitlines() if ln.strip()]
        if outcome.stdout or "Traceback" in outcome.stderr or not lines \
                or not lines[-1].startswith("input error"):
            return Verdict("exit 2 without a one-line input error")
        return Verdict(None)
    if code not in (0, 1):
        return Verdict(f"exit code {code!r}")
    try:
        flat = parse_report(outcome.stdout, fmt)
    except ValueError as exc:
        return Verdict(f"malformed {fmt} report: {exc}")
    non_finite = non_finite_fields(flat)
    if non_finite:
        return Verdict(f"non-finite value in {non_finite[0]}", flat=flat)
    if code == 1 and command not in GATED_COMMANDS:
        return Verdict("exit 1 from a command without a gate", flat=flat)
    bad = report_invariants(command, flat, kind)
    if code == 1 and not bad:
        bad = ["gate failed"]
    return _judge_content(flat, bad, reference)


def check_summary(function: str, flat: dict, kind: str,
                  reference: dict | None = None) -> Verdict:
    """Judge one library call from its flattened summary."""
    non_finite = non_finite_fields(flat)
    if non_finite:
        return Verdict(f"non-finite value in {non_finite[0]}", flat=flat)
    bad = []
    if function == "instanton_classify":
        bad = report_invariants("classify", flat, kind)
    elif function == "stability_report":
        bad = report_invariants("stability", flat, kind)
    elif function == "vanishing_report":
        bad = report_invariants("vanishing", flat, kind)
    elif function in ("project", "bidegree_split"):
        if flat["reassembly_residual"] > DECOMPOSE_TOL * max(
                1.0, flat["input_norm"]):
            bad.append("reassembly residual")
        if function == "project" and kind in BLOCK_OF_TYPE:
            own = flat[f"parts.{BLOCK_OF_TYPE[kind]}.norm"]
            if abs(own - flat["input_norm"]) > DECOMPOSE_TOL * max(
                    1.0, flat["input_norm"]):
                bad.append(f"form lies in block {BLOCK_OF_TYPE[kind]}")
        if function == "bidegree_split":
            expected = {SD: {"1,1"}, LAMBDA: {"1,1"},
                        ASD: {"2,0", "0,2"}}.get(kind)
            found = set(flat["types"].split())
            if expected is not None and found != expected:
                bad.append(f"types {sorted(expected)}")
            if kind == NONE and not flat["eta_types"]:
                bad.append("an eta remainder")
    return _judge_content(flat, bad, reference)


def _judge_content(flat: dict, bad: list, reference: dict | None) -> Verdict:
    """A well-formed report is wrong when it breaks an invariant or
    differs from its reference."""
    if bad:
        return Verdict(f"invariant: {', '.join(bad)}", wrong=True, flat=flat)
    if reference is not None:
        mismatched = compare_reference(flat, reference)
        if mismatched:
            return Verdict(f"reference mismatch in {mismatched[0]}",
                           wrong=True, flat=flat)
    return Verdict(None, flat=flat)
